import csv

import numpy as np
import pytest

from advdiff import make_problem, solve_case
from advdiff.cli import main


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def test_run_linear_case(tmp_path):
    out = tmp_path / "sol.csv"
    rc = main(["run", "--case", "linear_advdiff", "--N", "40", "--k", "1",
               "--cfl", "0.5", "--beta", "1", "--T", "2", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["x", "u", "u_exact", "error"]
    assert len(rows) == 41
    assert rows[0][0] == pytest.approx(-np.pi)
    linf = max(r[3] for r in rows)
    assert linf == pytest.approx(7.260e-2, rel=0.02)


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--case", "strong_degenerate", "--N", "48", "--k", "2",
            "--T", "0.05"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_snapshots(tmp_path):
    out = tmp_path / "sol.csv"
    rc = main(["run", "--case", "linear_advdiff", "--N", "40", "--k", "1",
               "--T", "0.5", "--snapshots", "0.25", "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "sol_t0.25.csv").exists()


def test_run_snapshots_into_a_dotted_directory(tmp_path):
    # the suffix goes on the file name, not on a dotted directory name
    (tmp_path / "run.d").mkdir()
    rc = main(["run", "--case", "linear_advdiff", "--N", "40", "--k", "1",
               "--T", "0.5", "--snapshots", "0.25", "--out", str(tmp_path / "run.d" / "sol")])
    assert rc == 0
    assert (tmp_path / "run.d" / "sol_t0.25").exists()


def test_run_2d_snapshots(tmp_path):
    out = tmp_path / "sol2d.csv"
    rc = main(["run", "--case", "strong_degenerate_2d", "--N", "24", "--T", "0.02",
               "--snapshots", "0.01", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "sol2d_t0.01.csv")
    assert header == ["x", "y", "u"]
    assert len(rows) == 25 * 25
    assert rows[1][0] > rows[0][0] and rows[1][1] == rows[0][1]  # x varies fastest


def test_duplicate_snapshot_times_write_one_file(tmp_path):
    out = tmp_path / "sol.csv"
    rc = main(["run", "--case", "linear_advdiff", "--N", "40", "--k", "2",
               "--T", "0.5", "--snapshots", "0.25,0.25", "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sol.csv", "sol_t0.25.csv"]


def test_snapshot_times_with_one_file_name_are_rejected(tmp_path, capsys):
    # both times format to sol_t0.1.csv; the second file used to replace the first
    rc = main(["run", "--case", "linear_advdiff", "--N", "40", "--k", "1", "--T", "0.2",
               "--snapshots", "0.1000001,0.1000002", "--out", str(tmp_path / "sol.csv")])
    assert rc == 1
    assert ("error: snapshot times [0.1000001, 0.1000002] give the same file name"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("times", ["0.25,0.9", "0.0,0.25", "-1.0"])
def test_out_of_range_snapshot_times_are_rejected(times, tmp_path, capsys):
    rc = main(["run", "--case", "linear_advdiff", "--N", "40", "--k", "2",
               "--T", "0.5", "--snapshots", times, "--out", str(tmp_path / "sol.csv")])
    assert rc == 1
    bad = [float(t) for t in times.split(",") if float(t) != 0.25]
    assert f"snapshot times {bad} lie outside (0, 0.5]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("T, message", [("inf", "target time must be finite, got inf"),
                                        ("nan", "target time must be finite, got nan"),
                                        ("-0.5", "snapshot times [0.25] lie outside (0, -0.5]")])
def test_bad_final_time_with_snapshots_writes_no_file(T, message, tmp_path, capsys):
    rc = main(["run", "--case", "linear_advdiff", "--N", "40", "--k", "1",
               "--T", T, "--snapshots", "0.25", "--out", str(tmp_path / "sol.csv")])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", [["--case", "linear_advdiff", "--N", "40", "--k", "1"],
                                  ["--case", "strong_degenerate_2d", "--N", "24"]])
def test_snapshot_file_matches_a_run_to_its_time(case, tmp_path):
    # a snapshot is the field of a run that stops at its time, bit for bit
    assert main(["run", *case, "--T", "0.5", "--snapshots", "0.25",
                 "--out", str(tmp_path / "sol.csv")]) == 0
    assert main(["run", *case, "--T", "0.25", "--out", str(tmp_path / "short.csv")]) == 0
    assert (tmp_path / "sol_t0.25.csv").read_bytes() == (tmp_path / "short.csv").read_bytes()


def test_run_rejects_parameter_the_case_lacks(tmp_path, capsys):
    rc = main(["run", "--case", "pme_barenblatt", "--c", "3", "--N", "40",
               "--T", "1.1", "--out", str(tmp_path / "sol.csv")])
    assert rc == 1
    assert "c" in capsys.readouterr().err
    assert not (tmp_path / "sol.csv").exists()


@pytest.mark.parametrize("case, flag, value, message",
                         [("pme_barenblatt", "--m", "1", "m must be a finite real number > 1"),
                          ("pme_two_box", "--m", "1", "m must be a finite real number > 1"),
                          ("linear_advdiff", "--b", "-0.1", "b must be a finite real number >= 0"),
                          ("linear_advdiff", "--c", "nan", "c must be a finite real number")])
def test_run_rejects_a_knob_value_outside_its_rule(case, flag, value, message, tmp_path, capsys):
    out = tmp_path / "sol.csv"
    assert main(["run", "--case", case, flag, value, "--N", "40", "--T", "0.01",
                 "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sizes", [["--case", "linear_advdiff", "--N", "0"],
                                   ["--case", "linear_advdiff", "--N", "40", "--Ny", "7"],
                                   ["--case", "strong_degenerate_2d", "--N", "24", "--Ny", "0"]])
def test_run_rejects_grid_sizes_it_cannot_use(sizes, tmp_path, capsys):
    out = tmp_path / "sol.csv"
    assert main(["run", *sizes, "--T", "0.01", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,field", [("--T", "nan", "time"), ("--T", "inf", "time"),
                                              ("--cfl", "inf", "cfl"), ("--beta", "nan", "beta")])
def test_run_rejects_nonfinite_input(flag, value, field, tmp_path, capsys):
    out = tmp_path / "sol.csv"
    assert main(["run", "--case", "linear_advdiff", "--N", "40", flag, value,
                 "--out", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, setting",
                         [(["--quadrature", "linear6"], dict(quadrature="linear6")),
                          (["--no-filter"], dict(filter_enabled=False)),
                          (["--no-cross-term"], dict(cross_term_k3=False))])
def test_scheme_flags_reach_the_solver(flag, setting, tmp_path):
    # discontinuous data with convection at k=3, where each flag changes the solution
    args = ["run", "--case", "strong_degenerate", "--N", "48", "--k", "3", "--T", "0.05"]
    assert main(args + flag + ["--out", str(tmp_path / "flag.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "default.csv")]) == 0
    got, default = (np.array([r[1] for r in read_csv(tmp_path / name)[1]])
                    for name in ("flag.csv", "default.csv"))
    case = make_problem("strong_degenerate")
    _, want = solve_case(case, case.make_config(order=3, **setting), n=48, T=0.05)
    assert got.tobytes() == want.values.tobytes()
    assert not np.array_equal(got, default)


def test_convergence_command(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["convergence", "--case", "linear_advdiff", "--k", "2",
               "--cfl", "0.5", "--beta", "0.5", "--N", "40,80,160",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["N", "linf_error", "order"]
    assert [int(r[0]) for r in rows] == [40, 80, 160]
    assert np.isnan(rows[0][2])
    assert rows[2][2] == pytest.approx(1.985, abs=0.15)


def test_stability_command(tmp_path):
    out = tmp_path / "contour.csv"
    rc = main(["stability", "--kind", "diffusion", "--k", "3",
               "--beta", "0.8375", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["step_ratio", "kappa_dx", "abs_lambda"]
    assert len(rows) == 512 * 64
    assert max(r[2] for r in rows) <= 1 + 1e-10
    # one block of 512 kappa_dx rows per step ratio, each opening on the
    # neutrally stable zero mode
    for i in range(64):
        first = rows[i * 512]
        assert first[0] == rows[i * 512 + 511][0]
        assert first[1] == 0.0 and first[2] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mode", ["semi", "fully"])
@pytest.mark.parametrize("beta", ["0", "nan", "inf", "-0.5"])
def test_stability_rejects_bad_beta(beta, mode, tmp_path, capsys):
    rc = main(["stability", "--kind", "advection", "--k", "2", "--beta", beta,
               "--mode", mode, "--out", str(tmp_path / "contour.csv")])
    assert rc == 1
    assert "error: beta must be positive and finite" in capsys.readouterr().err


def test_compare_reference_command(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare-reference", "--case", "buckley_leverett", "--N", "64",
               "--k", "2", "--T", "0.05", "--n-ref", "400", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["x", "u", "u_ref", "error"]
    # both solvers track the same Riemann fan on this short horizon; compare
    # in the integral norm (pointwise errors at the shock cell stay O(1))
    l1 = sum(r[3] for r in rows) / 64
    assert l1 < 0.05


def test_compare_reference_without_wave_speeds_fails_cleanly(tmp_path, capsys):
    rc = main(["compare-reference", "--case", "linear_advdiff", "--c", "0", "--b", "0",
               "--N", "40", "--out", str(tmp_path / "cmp.csv")])
    assert rc == 1
    assert "error: both wave-speed bounds vanish" in capsys.readouterr().err


@pytest.mark.parametrize("T", ["inf", "nan"])
def test_compare_reference_rejects_a_bad_final_time(T, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = main(["compare-reference", "--case", "buckley_leverett", "--N", "40",
               "--n-ref", "200", "--T", T, "--out", str(out)])
    assert rc == 1
    assert f"error: reference target time must lie in [0, inf), got {T}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_case_fails():
    with pytest.raises(SystemExit):
        main(["run", "--case", "nonexistent", "--out", "/tmp/x.csv"])


def test_run_2d_case(tmp_path):
    out = tmp_path / "sol2d.csv"
    rc = main(["run", "--case", "strong_degenerate_2d", "--N", "24",
               "--k", "2", "--beta", "0.25", "--T", "0.02", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "u"]
    assert len(rows) == 25 * 25


def test_bad_output_path_is_reported():
    rc = main(["run", "--case", "linear_advdiff", "--N", "40", "--k", "1",
               "--T", "0.1", "--out", "/nonexistent-dir/sol.csv"])
    assert rc == 1
