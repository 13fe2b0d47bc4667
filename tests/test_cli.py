import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import greenbound
from greenbound import GridFn, Interval, make_grid, sample, write_gridfn_csv
from greenbound import cli
from greenbound.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_scenario_ex4(tmp_path, capsys):
    out_csv = tmp_path / "bound.csv"
    out_json = tmp_path / "summary.json"
    code, _, _ = run(capsys, "bound", "--q", "-1", "--scenario", "ex4",
                     "--gamma", "1", "--lambda", "1", "--grid-n", "201",
                     "--out", str(out_csv), "--summary", str(out_json))
    assert code == 0
    summary = json.loads(out_json.read_text())
    assert summary["schema"] == "greenbound/1"
    assert summary["regime"] == "q<0"
    assert summary["min_bracket"] == pytest.approx(5.0, rel=1e-10)
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "x,h,GhqV,bound,necessary_ok,sufficient_ok"
    # spot-check bound = sqrt5 * h at the middle row
    mid = rows[1 + 100].split(",")
    h_mid, bound_mid = float(mid[1]), float(mid[3])
    assert bound_mid == pytest.approx(np.sqrt(5.0) * h_mid, rel=1e-12)


def test_recurrence_json(capsys):
    code, out, _ = run(capsys, "recurrence", "--q", "-1", "--a", "0.25",
                       "--kmax", "200")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "greenbound/1"
    bseq = data["b_sequence"]
    assert len(bseq) == 201
    assert bseq[-1] == pytest.approx(0.5, abs=3e-3)


def test_recurrence_diverging_exit_code(capsys):
    code, _, err = run(capsys, "recurrence", "--q", "-1", "--a", "0.3")
    assert code == 1
    assert "condition failure" in err


def test_bound_bracket_violation_exit_code(capsys):
    code, _, err = run(capsys, "bound", "--q", "2", "--grid-n", "101",
                       "--V", "constant:-300")
    assert code == 1
    assert "bracket violation" in err


def test_bound_value_only_weight_below_the_threshold_is_finite(capsys):
    """h^q V ~ d^{-1.9} at the ends: the bracket is finite, and fails."""
    code, out, _ = run(capsys, "bound", "--q", "-0.5", "--V", "power-distance:0.01,1.4",
                       "--grid-n", "401")
    assert code == 1
    assert json.loads(out)["min_bracket"] == pytest.approx(-102.6, abs=0.05)


def test_malformed_config_exit_code(capsys):
    code, _, err = run(capsys, "bound", "--grid-n", "101")
    assert code == 3
    assert "config error" in err


_BOUND = ("bound", "--q", "2", "--grid-n", "101")


@pytest.mark.parametrize("argv", [
    (*_BOUND, "--V", "constant:nan"), (*_BOUND, "--V", "constant:inf"),
    (*_BOUND, "--V", "constant:1", "--f", "constant:nan"),
    (*_BOUND, "--V", "power-distance:nan,0.5"),
    (*_BOUND, "--V", "power-distance:1,inf"),
    # non-finite numeric flags and config values
    ("bound", "--q", "nan", "--grid-n", "101", "--V", "constant:-1"),
    ("bound", "--q", "inf", "--grid-n", "101", "--V", "constant:-1"),
    ("recurrence", "--q", "-1", "--a", "nan"),
    ("solve-integral", "--q", "-1", "--grid-n", "101", "--V", "constant:0.001",
     "--tolerance", "nan"),
    ("recurrence", "--config", "nan.cfg"),
    # flags the command does not read
    (*_BOUND, "--V", "constant:-1", "--kmax", "5"),
    ("recurrence", "--q", "-1", "--a", "0.2", "--grid-n", "7"),
    # q = 0 is not replaced by the scenario's default q
    ("scenario", "--id", "ex4", "--q", "0"),
    # prefixes of flags are not accepted
    ("solve-bvp", "--q", "2", "--V", "constant:-1", "--f", "constant:1",
     "--tol", "1e-9"),
    ("scenario", "--id", "ex4", "--s", "x.json"),
    # flags of one problem source given with the other
    ("bound", "--q", "-1", "--scenario", "ex4", "--gamma", "1", "--lambda", "1",
     "--grid-n", "201", "--V", "constant:5", "--interval", "0,3"),
    ("bound", "--q", "2", "--V", "constant:-1", "--grid-n", "201", "--beta", "5",
     "--alpha", "3"),
    ("bound", "--q", "-1", "--grid-n", "201", "--V", "constant:0.01", "--V-file", "x.csv"),
    ("bound", "--q", "-1", "--grid-n", "201", "--V", "constant:0.01", "--f", "constant:1",
     "--f-file", "x.csv"),
    # a parameter the scenario does not read
    ("scenario", "--id", "ex3", "--lambda", "7"),
    ("scenario", "--id", "ex1", "--q", "-0.5"),
    ("bound", "--scenario", "ex4", "--q", "-1", "--lambda", "1", "--gamma", "1",
     "--beta", "3"),
])
def test_non_finite_builtin_is_config_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.cfg").write_text("q=-1\na=nan\n")
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "config error" in err


@pytest.mark.parametrize("scenario_id,n", [("ex4", 201), ("ex2", 401)])
def test_fit_window_too_coarse_is_a_resolution_failure(capsys, scenario_id, n):
    # the boundary-rate fit window holds fewer than 8 nodes at this n
    code, _, err = run(capsys, "scenario", "--id", scenario_id, "--grid-n", str(n))
    assert code == 2
    assert "usable nodes in window" in err


def test_recurrence_kmax_zero_is_not_the_default(capsys):
    code, out, _ = run(capsys, "recurrence", "--q", "-1", "--a", "0.2", "--kmax", "0")
    assert code == 0
    assert json.loads(out)["b_sequence"] == [1.0]


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=-1\na=0.225\nkmax=50\n")
    code, out, _ = run(capsys, "recurrence", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["a"] == 0.225 and data["k_max"] == 50


def test_solve_integral_scenario(tmp_path, capsys):
    out_json = tmp_path / "trace.json"
    code, _, _ = run(capsys, "solve-integral", "--q", "-1", "--grid-n", "201",
                     "--V", "constant:0", "--summary", str(out_json))
    assert code == 0
    data = json.loads(out_json.read_text())
    assert data["converged"] is True and data["k_stop"] == 1


def test_solve_bvp_with_files(tmp_path, capsys):
    grid = make_grid(Interval(0.0, 1.0), 201)
    vfile = tmp_path / "v.csv"
    write_gridfn_csv(sample(lambda x: -1.0, grid), vfile)
    ucsv = tmp_path / "u.csv"
    code, _, _ = run(capsys, "solve-bvp", "--q", "2", "--grid-n", "201",
                     "--V-file", str(vfile), "--f", "constant:1",
                     "--tolerance", "1e-9", "--out", str(ucsv))
    assert code == 0
    lines = ucsv.read_text().splitlines()
    assert lines[0] == "x,value"
    vals = np.array([float(r.split(",")[1]) for r in lines[1:]])
    h = 0.5 * grid.nodes * (1 - grid.nodes)
    assert np.all(vals[1:-1] >= h[1:-1] - 1e-9)


def test_identity_check_command(capsys):
    code, out, _ = run(capsys, "identity-check", "--q", "2", "--grid-n", "101",
                       "--levels", "3")
    assert code == 0
    data = json.loads(out)
    assert all(r >= 3.5 for r in data["halving_ratios"])


def test_scenario_command_ex2(capsys):
    code, out, _ = run(capsys, "scenario", "--id", "ex2", "--q", "-0.5",
                       "--lambda", "1", "--beta", "1.0", "--grid-n", "2001")
    assert code == 0
    data = json.loads(out)
    assert data["fitted_rates"]["model"] == "power"
    assert data["fitted_rates"]["slope"] == pytest.approx(-0.5, abs=0.05)


def test_deterministic_output(tmp_path, capsys):
    a1 = tmp_path / "a1.csv"
    a2 = tmp_path / "a2.csv"
    for path in (a1, a2):
        code, _, _ = run(capsys, "bound", "--q", "-1", "--scenario", "ex4",
                         "--gamma", "0.9", "--lambda", "1", "--grid-n", "101",
                         "--out", str(path))
        assert code == 0
    assert a1.read_bytes() == a2.read_bytes()


@pytest.mark.parametrize("argv", [("bound", "--scenario", "ex9"),
                                  ("scenario", "--id", "ex9")])
def test_unknown_scenario_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "unknown scenario" in err


def test_power_distance_builtin_matches_ex2(tmp_path, capsys):
    builtin = tmp_path / "builtin.csv"
    scenario = tmp_path / "scenario.csv"
    common = ("bound", "--q", "-0.5", "--grid-n", "401")
    run(capsys, *common, "--V", "power-distance:1.5,0.8", "--f", "constant:1",
        "--out", str(builtin))
    run(capsys, *common, "--scenario", "ex2", "--lambda", "1.5", "--beta", "0.8",
        "--out", str(scenario))
    assert builtin.read_bytes() == scenario.read_bytes()


@pytest.mark.parametrize("beta,model", [(0.1, "bounded"), (1.0, "power")])
def test_scenario_command_ex3_rate(capsys, beta, model):
    # V = -d^{-beta} absorbs, so G(h^q V) < 0; the rate is that of |G(w)|/h,
    # with weight exponent e = beta - q: bounded for e < 0.75, d^{1-e} from 1.45
    q = -0.5
    code, out, _ = run(capsys, "scenario", "--id", "ex3", "--q", str(q),
                       "--beta", str(beta))
    assert code == 0
    rates = json.loads(out)["fitted_rates"]
    assert rates["model"] == model
    if model == "power":
        assert rates["slope"] == pytest.approx(1.0 - (beta - q), abs=0.05)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_readme_examples_exit_zero(tmp_path, monkeypatch, capsys):
    """Every README example, and the unknown-id cases, against the golden set.

    tests/golden/readme_cli.json holds, per command, the exit code and the
    SHA-256 of its stdout and of every file it writes.  A change that moves
    a hash must say which one and why.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = [line.split()[1:] for line in block.splitlines()
                if line.startswith("greenbound ")]
    assert len(examples) == 8
    golden = json.loads((Path(__file__).parent / "golden" / "readme_cli.json").read_text())
    monkeypatch.chdir(tmp_path)
    write_gridfn_csv(sample(lambda x: -1.0 - x, make_grid(Interval(0.0, 1.0), 2001)),
                     "v.csv")
    got = {}
    for argv in examples + [["bound", "--scenario", "ex9"], ["scenario", "--id", "ex9"]]:
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        code, out, err = run(capsys, *argv)
        assert code == (3 if "ex9" in argv else 0), (argv, err)
        got[" ".join(argv)] = {
            "exit": code, "stdout": _sha256(out.encode()),
            "files": {p.name: _sha256(p.read_bytes()) for p in sorted(tmp_path.iterdir())
                      if before.get(p.name) != p.read_bytes()}}
    assert got == golden


def test_benchmark_cli_argv_shapes(tmp_path, capsys):
    """The argv shapes of perfbench's op_cli_bound, op_cli_ex4 and op_cli_ex2.

    A flag these commands stopped accepting would turn every cli_* op of the
    bounds_sweep workload into an unexpected failure.  n = 2001, as there:
    the scenario fit windows hold too few nodes at n = 201.
    """
    n = 2001
    vfile = tmp_path / "v.csv"
    write_gridfn_csv(sample(lambda x: -1.0 - x, make_grid(Interval(0.0, 1.0), n)),
                     vfile)
    out, summary = tmp_path / "out.csv", tmp_path / "summary.json"
    for argv in [
            ("bound", "--q", repr(2.0), "--interval", "0,1", "--grid-n", n,
             "--V-file", vfile, "--f", "constant:1", "--out", out,
             "--summary", summary),
            ("scenario", "--id", "ex4", "--q", repr(-1.0), "--lambda", repr(1.0),
             "--gamma", repr(1.0), "--grid-n", n, "--summary", summary,
             "--out", out),
            ("scenario", "--id", "ex2", "--q", repr(-0.5), "--lambda", repr(1.0),
             "--beta", repr(1.0), "--grid-n", n, "--summary", summary,
             "--out", out)]:
        code, _, err = run(capsys, *map(str, argv))
        assert code == 0, (argv, err)


# README: 1 a precondition or pointwise condition fails, 2 numerical
# non-convergence or a grid too coarse for the result, 3 malformed
# configuration.  Classes not listed are condition failures.
_README_EXIT = {"ConfigError": 3, "InvalidGridError": 3, "InvalidScenarioError": 3,
                "SolverFailureError": 2, "ResolutionInsufficientError": 2,
                "WindowTooSmallError": 2, "ValueError": 3, "OSError": 3}
_PREFIX = {1: "condition failure", 2: "numerical failure", 3: "config error"}
_ERRORS = sorted((obj for obj in vars(greenbound).values()
                  if isinstance(obj, type) and issubclass(obj, greenbound.GreenboundError)),
                 key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _ERRORS, ids=lambda cls: cls.__name__)
def test_error_class_carries_its_readme_exit_code(cls):
    assert cls.exit_code == _README_EXIT.get(cls.__name__, 1)


@pytest.mark.parametrize("cls", [*_ERRORS, ValueError, OSError],
                         ids=lambda cls: cls.__name__)
def test_main_exits_with_each_error_class_code(monkeypatch, capsys, cls):
    nodes = cls is greenbound.PreconditionFailedError

    def handler(args):
        raise cls("boom", nodes=list(range(3, 20))) if nodes else cls("boom")

    _, flags, defaults = cli._COMMANDS["recurrence"]
    monkeypatch.setitem(cli._COMMANDS, "recurrence", (handler, flags, defaults))
    code, _, err = run(capsys, "recurrence")
    expected = _README_EXIT.get(cls.__name__, 1)
    suffix = f" (nodes {list(range(3, 13))})" if nodes else ""
    assert (code, err) == (expected, f"{_PREFIX[expected]}: boom{suffix}\n")


def _bound_with_v(tmp_path, capsys, q, vals):
    grid = make_grid(Interval(0.0, 1.0), 201)
    write_gridfn_csv(GridFn(grid, vals), tmp_path / "v.csv")
    return run(capsys, "bound", "--q", q, "--grid-n", "201",
               "--V-file", str(tmp_path / "v.csv"))


def test_bound_sufficiency_flags_only_in_the_monotone_regime(tmp_path, capsys):
    x = make_grid(Interval(0.0, 1.0), 201).nodes
    code, out, _ = _bound_with_v(tmp_path, capsys, "2", np.cos(3.0 * x))
    assert code == 0
    assert json.loads(out)["sufficient_ok_everywhere"] is None
    code, out, _ = _bound_with_v(tmp_path, capsys, "2", -1.0 - x)
    assert code == 0
    assert json.loads(out)["sufficient_ok_everywhere"] is True
    code, out, err = _bound_with_v(tmp_path, capsys, "0.5", -1.0 - x)
    assert (code, out) == (1, "")
    assert err.startswith("condition failure:") and "needs u" in err


@pytest.mark.parametrize("text", ["x,value\n0\n", ""])
def test_malformed_csv_is_config_error(tmp_path, capsys, text):
    # a row with one field, and an empty file
    (tmp_path / "V.csv").write_text(text)
    code, _, err = run(capsys, "bound", "--q", "2", "--grid-n", "3",
                       "--V-file", str(tmp_path / "V.csv"))
    assert code == 3
    assert err.startswith("config error:")


@pytest.mark.parametrize("argv", [
    ("solve-integral", "--q", "-1", "--grid-n", "11", "--V", "constant:0.001",
     "--kmax", "-5"),
    ("solve-integral", "--q", "-1", "--grid-n", "11", "--V", "constant:0.001",
     "--kmax", "0"),
    ("recurrence", "--q", "-1", "--a", "0.25", "--kmax", "-3"),
    ("recurrence", "--q", "-1", "--a", "0.25", "--kmax", "1.5"),
    ("identity-check", "--q", "2", "--levels", "-2"),
    ("recurrence", "--config", "k.cfg"),
])
def test_bad_counts_are_config_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.cfg").write_text("q=-1\na=0.25\nkmax=-1\n")
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "config error:" in err


def test_refused_h_names_interior_nodes(capsys):
    # f = -1 makes h < 0 at the 9 interior nodes; h = 0 at nodes 0 and 10
    code, _, err = run(capsys, "solve-integral", "--q", "-1", "--grid-n", "11",
                       "--V", "constant:0.001", "--f", "constant:-1")
    assert code == 1
    assert err.strip().endswith("(nodes [1, 2, 3, 4, 5, 6, 7, 8, 9])")


@pytest.mark.parametrize("argv,flag", [
    (("--scenario", "ex4", "--V", "constant:5"), "--V"),
    (("--scenario", "ex4", "--V-file", "v.csv"), "--V-file"),
    (("--scenario", "ex4", "--f", "constant:2"), "--f"),
    (("--scenario", "ex4", "--f-file", "v.csv"), "--f-file"),
    (("--scenario", "ex4", "--interval", "0,2"), "--interval"),
    (("--q", "2", "--V", "constant:-1", "--alpha", "0.5"), "--alpha"),
    (("--q", "2", "--V", "constant:-1", "--lambda", "1"), "--lambda"),
    (("--q", "2", "--V", "constant:-1", "--beta", "1"), "--beta"),
    (("--q", "2", "--V", "constant:-1", "--gamma", "1"), "--gamma"),
    (("--q", "2", "--V", "constant:-1", "--V-file", "v.csv"), "--V-file"),
    (("--q", "2", "--V", "constant:-1", "--f", "constant:1", "--f-file", "v.csv"),
     "--f-file"),
])
def test_problem_sources_exclude_each_other(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    write_gridfn_csv(sample(lambda x: -1.0, make_grid(Interval(0.0, 1.0), 201)), "v.csv")
    code, out, err = run(capsys, "bound", "--grid-n", "201", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("config error: ")
    assert re.search(re.escape(flag) + r"(?![\w-])", err), err


def test_bound_scenario_takes_the_scenario_defaults(tmp_path, capsys):
    # ex2 reads q, lambda and beta, with defaults -0.5, 1 and 1
    given, default = tmp_path / "given.csv", tmp_path / "default.csv"
    run(capsys, "bound", "--scenario", "ex2", "--q", "-0.5", "--lambda", "1",
        "--beta", "1", "--grid-n", "401", "--out", str(given))
    run(capsys, "bound", "--scenario", "ex2", "--grid-n", "401", "--out", str(default))
    assert given.read_bytes() and default.read_bytes() == given.read_bytes()


@pytest.mark.parametrize("argv", [
    ("bound", "--q", "2", "--grid-n", "101", "--V", "constant:-1", "--out", "t.csv"),
    ("solve-integral", "--q", "-1", "--grid-n", "101", "--V", "constant:0.001",
     "--out", "t.csv"),
    ("solve-bvp", "--q", "2", "--grid-n", "101", "--V", "constant:-1", "--out", "t.csv"),
    ("scenario", "--id", "ex4", "--out", "t.csv"),
    ("recurrence", "--q", "-1", "--a", "0.25"),
    ("identity-check", "--q", "2", "--levels", "1"),
])
def test_each_command_writes_its_summary_once(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    written = []
    monkeypatch.setattr(cli, "write_json", lambda obj, path=None: written.append(obj))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == ""
    assert len(written) == 1 and written[0]["schema"] == "greenbound/1"
    assert ("--out" in argv) == (tmp_path / "t.csv").exists()


_CSV_BOUND = ("bound", "--q", "2", "--grid-n", "101", "--V", "constant:-1",
              "--format", "csv")


def test_bound_format_csv_prints_the_table(tmp_path, capsys):
    code, out, _ = run(capsys, *_CSV_BOUND)
    assert code == 0
    code, again, _ = run(capsys, *_CSV_BOUND, "--out", str(tmp_path / "t.csv"))
    assert code == 0
    assert out.encode() == (tmp_path / "t.csv").read_bytes()
    # with --out the summary goes to stdout as with --format json
    assert json.loads(again)["schema"] == "greenbound/1"


def test_bound_format_csv_with_summary_writes_only_the_summary(tmp_path, capsys):
    summary = tmp_path / "s.json"
    code, out, _ = run(capsys, *_CSV_BOUND, "--summary", str(summary))
    assert (code, out) == (0, "")
    data = json.loads(summary.read_text())
    assert data["schema"] == "greenbound/1" and data["regime"] == "q>1"


def _readme_flags(text):
    """The flags that open a code span: `--boundary u(a),u(b)`, not `bound --q`."""
    return set(re.findall(r"`(--[A-Za-z][\w-]*)", text))


def test_readme_flag_table_matches_the_commands():
    """README's per-command flag table, and its scenario defaults, against the code."""
    from greenbound.scenarios import SCENARIOS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Each command accepts only the flags it reads", 1)[1]
    problem = _readme_flags(section.split("The problem flags are", 1)[1].split(".", 1)[0])
    rows = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", section.split("\n\n", 2)[1],
                           re.MULTILINE))
    assert rows.keys() == cli._COMMANDS.keys()
    for command, row in rows.items():
        flags = _readme_flags(row) | (problem if "the problem flags" in row else set())
        assert flags == set(cli._COMMANDS[command][1]), command
    dest = {"--lambda": "lam"}
    documented = {sid: {dest.get(flag, flag[2:]): float(value)
                        for flag, value in re.findall(r"`(--\w+)` \(([^)]*)\)", params)}
                  for sid, params in re.findall(r"(ex\d) ((?:`--\w+` \([^)]*\),? ?)+)",
                                                rows["scenario"])}
    assert documented == {sid: defaults for sid, (_, defaults) in SCENARIOS.items()}


@pytest.mark.parametrize("argv,flag,value", [
    (("bound", "--q", "2", "--V", "constant:-1", "--grid-n", "101"), "--interval", "-1,1"),
    (("solve-bvp", "--q", "2", "--V", "constant:-1", "--grid-n", "101"),
     "--boundary", "-0.5,0"),
])
def test_negative_pair_parses_as_a_separate_token(tmp_path, capsys, argv, flag, value):
    written = []
    for i, spelling in enumerate(((flag, value), (f"{flag}={value}",))):
        out, summary = tmp_path / f"t{i}.csv", tmp_path / f"s{i}.json"
        code, _, err = run(capsys, *argv, *spelling, "--out", str(out),
                           "--summary", str(summary))
        assert code == 0, err
        written.append((out.read_bytes(), summary.read_bytes()))
    assert written[0] == written[1]


def test_infinite_weight_potential_names_its_nodes(capsys):
    # V = d^{-3} makes K(h^{-1} V) = +inf at every interior node
    code, _, err = run(capsys, "solve-integral", "--q", "-1", "--grid-n", "101",
                       "--V", "power-distance:1,3")
    assert code == 1
    assert "K(h^q V) is not finite" in err
    assert err.strip().endswith(f"(nodes {list(range(1, 11))})")
