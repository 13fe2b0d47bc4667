import json

import numpy as np
import pytest

from greenbound import Interval, make_grid, sample, write_gridfn_csv
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
