import hashlib
import json
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
