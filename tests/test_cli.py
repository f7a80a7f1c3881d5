import logging
import math

import numpy as np
import pytest

from qedtangle.cli import main
from qedtangle.kinematics import PROCESS_TABLE
from qedtangle.scan import parse_csv


def test_scan_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["scan", "--process", "moller", "--p-min", "0.5", "--p-max", "1.5",
               "--p-steps", "3", "--theta-steps", "4", "--out", str(out)])
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 12
    assert "wrote 12 rows" in capsys.readouterr().out


def test_scan_with_config_file_and_override(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("process = compton\ninitial = ll\n"
                   "p_min = 0.5\np_max = 2.0\np_steps = 2\n"
                   "theta_steps = 3\n# comment line\nout = ignored.csv\n")
    out = tmp_path / "real.csv"
    rc = main(["scan", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 6
    assert rows[0].process == "compton"
    assert rows[0].initial == "pure(LL)"


def test_scan_defaults_are_scan_config_defaults(tmp_path):
    from qedtangle.kinematics import ProcessKind
    from qedtangle.scan import ScanConfig, emit_csv, run_scan
    out, want = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert main(["scan", "--process", "moller", "--out", str(out)]) == 0
    emit_csv(run_scan(ScanConfig(process=ProcessKind.MOLLER)), want)
    assert out.read_bytes() == want.read_bytes()


def test_scan_config_file_bad_value_exit_code(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("process = moller\np_steps = many\n")
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    cfg.write_text("process = moller\np_log = maybe\n")
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def test_scan_config_file_unknown_key_exit_code(tmp_path, capsys):
    # a misspelt key must not silently fall back to the default
    cfg = tmp_path / "scan.cfg"
    out = tmp_path / "x.csv"
    for line in ("p_step = 3", "tol = 1e-10"):
        cfg.write_text(f"process = moller\ntheta_steps = 2\n{line}\n")
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
        key = line.split()[0]
        assert f"{cfg}:3: unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_scan_config_file_repeated_key_exit_code(tmp_path, capsys):
    # a repeated key must not silently keep its last value
    cfg = tmp_path / "scan.cfg"
    out = tmp_path / "x.csv"
    cfg.write_text("process = moller\np_steps = 4\ntheta_steps = 2\n# again\np_steps = 6\n")
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:5: repeated key 'p_steps' (first set on line 2)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["scan", "--process", "moller", "--out", "x.csv", "--tol", "1"],
    ["threshold", "--process", "moller", "--theta", "1.5", "--p-bracket", "0.5,2.0",
     "--tol", "1"],
    ["point", "--process", "moller", "--p", "1.0", "--theta", "1.5", "--tol", "1"],
    ["xsec", "--process", "moller", "--p", "1.0", "--theta", "1.5", "--tol", "1"],
    ["xsec", "--process", "moller", "--p", "1.0", "--theta", "1.5", "--initial", "rr"],
])
def test_removed_flags_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_invalid_process_exit_code():
    assert main(["scan", "--process", "pingpong", "--out", "x.csv"]) == 2


def test_missing_out_exit_code():
    assert main(["scan", "--process", "moller"]) == 2


def test_unwritable_output_exit_code(tmp_path):
    rc = main(["scan", "--process", "moller", "--p-steps", "2",
               "--theta-steps", "2", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert rc == 4


def test_threshold_command(capsys):
    rc = main(["threshold", "--process", "moller", "--theta", str(math.pi / 2),
               "--p-bracket", "0.5,2.0"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(1.0517, abs=2e-3)


def test_threshold_bad_bracket_exit_code(capsys):
    rc = main(["threshold", "--process", "moller", "--theta", str(math.pi / 2),
               "--p-bracket", "2.0,3.0"])
    assert rc == 2


def test_threshold_bracket_point_errors_exit_code(capsys):
    # a pole bracket (Moller at theta = 0) and a zero-flux bracket
    assert main(["threshold", "--process", "moller", "--theta", "0",
                 "--p-bracket", "0.5,2.0"]) == 2
    assert "propagator pole" in capsys.readouterr().err
    assert main(["threshold", "--process", "annihilation", "--initial", "lr",
                 "--theta", str(math.pi), "--p-bracket", "0.01,1.0"]) == 2
    assert "no outgoing flux" in capsys.readouterr().err


@pytest.mark.parametrize("theta, bracket, reason", [
    ("nan", "0.1,2", "non-finite theta"), ("inf", "0.1,2", "non-finite theta"),
    ("-inf", "0.1,2", "non-finite theta"), ("1.5707963", "0.5,inf", "bad bracket")])
def test_threshold_non_finite_input_exit_code(theta, bracket, reason, capsys):
    # rejected before any evaluation: the right reason and no numpy warning,
    # which the test settings turn into an error
    assert main(["threshold", "--process", "moller", f"--theta={theta}",
                 "--p-bracket", bracket]) == 2
    err = capsys.readouterr().err
    assert reason in err and "below threshold" not in err


def test_negative_values_with_an_exponent(tmp_path, capsys):
    # argparse alone reads '-1e-1', '-1e-3' and '-inf' as option names
    assert main(["point", "--process", "moller", "--p", "1.0", "--theta", "-1e-1"]) == 0
    spaced = capsys.readouterr().out
    assert main(["point", "--process", "moller", "--p", "1.0", "--theta=-1e-1"]) == 0
    assert capsys.readouterr().out == spaced
    out = tmp_path / "scan.csv"
    assert main(["scan", "--process", "moller", "--p-steps", "2", "--theta-steps", "2",
                 "--theta-min", "-1e-3", "--theta-max", "1", "--out", str(out)]) == 0
    assert len(parse_csv(out)) == 4
    assert main(["threshold", "--process", "moller", "--theta", "-inf",
                 "--p-bracket", "0.1,2"]) == 2
    assert "non-finite theta" in capsys.readouterr().err


def test_missing_process_exit_code():
    assert main(["threshold", "--theta", "1.0", "--p-bracket", "0.5,2.0"]) == 2
    assert main(["threshold", "--process", "moller", "--theta", "1.0",
                 "--p-bracket", "oops"]) == 2
    assert main(["point", "--p", "1.0", "--theta", "1.0"]) == 2


def test_point_command(capsys):
    rc = main(["point", "--process", "electron-muon", "--p", "7.348", "--theta",
               str(math.pi), "--initial", "unpolarized"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "negativity" in text and "closest Bell" in text
    # 2 rad from the forward ray at p = 1e-5 MeV: far from any pole
    assert main(["point", "--process", "electron-muon", "--p", "1e-5", "--theta", "2"]) == 0


@pytest.mark.parametrize("process", ["moller", "compton", "muon-pair"])
def test_point_command_forms_the_invariants_once(monkeypatch, capsys, process):
    from qedtangle import amplitudes, kinematics
    calls = []
    real = kinematics.mandelstam_batch

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(kinematics, "mandelstam_batch", counting)
    monkeypatch.setattr(amplitudes, "mandelstam_batch", counting)
    assert main(["point", "--process", process, "--p", "150.0", "--theta", "1.0"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("weights", ["nan,0,0,0", "1,0,0,nan", "inf,0,0,0", "-inf,1,0,1"])
def test_non_finite_diagonal_weights_exit_code(tmp_path, capsys, weights):
    out = tmp_path / "x.csv"
    assert main(["scan", "--process", "moller", "--initial", f"diag:{weights}",
                 "--p-steps", "2", "--theta-steps", "2", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()
    assert main(["point", "--process", "moller", "--p", "1.0", "--theta", "1.0",
                 "--initial", f"diag:{weights}"]) == 2
    assert "finite" in capsys.readouterr().err


def test_point_below_threshold_exit_code():
    assert main(["point", "--process", "muon-pair", "--p", "50.0",
                 "--theta", "1.0"]) == 2


def test_muon_pair_just_below_threshold(tmp_path, capsys):
    # 1e-16 relative below the threshold 105.65713981256592 MeV
    p = "105.65713981256582"
    assert main(["point", "--process", "muon-pair", "--p", p, "--theta", "1.0"]) == 2
    assert "below threshold" in capsys.readouterr().err
    out = tmp_path / "thr.csv"
    assert main(["scan", "--process", "muon-pair", "--p-min", p, "--p-max", "106",
                 "--p-steps", "3", "--theta-steps", "2", "--out", str(out)]) == 0
    assert [r.status for r in parse_csv(out)] == ["below-threshold", "ok", "ok"] * 2
    assert main(["threshold", "--process", "muon-pair", "--theta", "1.0",
                 "--p-bracket", f"{p},200"]) == 2
    assert "below threshold" in capsys.readouterr().err


def test_xsec_command(capsys):
    rc = main(["xsec", "--process", "compton", "--p", "1.3", "--theta", "2.0"])
    assert rc == 0
    assert "relative difference" in capsys.readouterr().out


def test_xsec_command_compton_at_low_p(capsys):
    # the closed form takes kappa and kappa' without cancellation, so the
    # check holds where (s - m^2)/2 and (m^2 - u)/2 lose their digits
    rc = main(["xsec", "--process", "compton", "--p", "1e-5", "--theta", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0, out
    # and so does the engine, down to its last bits
    assert float(out.split("relative difference")[1].split(":")[1]) <= 1e-15, out


def test_audit_command(capsys):
    rc = main(["audit", "--samples", "3", "--seed", "11"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "ALL PASS" in out
    assert "PASS  measure sanity det(rho^T_B)" in out
    # one Ward line per photon leg of the process table, in table order
    ward = [line.split(":")[0] for line in out.splitlines() if line.startswith("PASS  Ward ")]
    assert ward == [f"PASS  Ward {process.value} leg {leg}"
                    for process, info in PROCESS_TABLE.items()
                    for leg, spec in enumerate(info["in"] + info["out"])
                    if spec.field == "photon"]
    assert len(ward) == 4


def test_audit_command_audits_each_grid_once(caplog):
    caplog.set_level(logging.INFO, logger="qedtangle.scan")
    assert main(["audit", "--samples", "1", "--seed", "3"]) == 0
    audits = [r for r in caplog.records if r.levelno == logging.INFO
              and r.getMessage().startswith("symmetry audit")]
    assert len(audits) == 4         # one per symmetry spot check


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_audit_without_samples_is_a_config_error(capsys, samples):
    # no check may run and pass vacuously
    assert main(["audit", "--samples", samples]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--samples must be at least 1" in err


def test_eigensolver_failure_exit_code(tmp_path, monkeypatch, capsys):
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr("qedtangle.entanglement.hermitian_eigenvalues_batch", fail)
    # a pure input is not mirror-invariant, so the scan's spectra come from LAPACK
    rc = main(["scan", "--process", "moller", "--initial", "ll", "--p-steps", "2",
               "--theta-steps", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()        # no partial CSV is left behind


def test_scan_log_grid_flag(tmp_path):
    out = tmp_path / "log.csv"
    rc = main(["scan", "--process", "compton", "--p-min", "0.1", "--p-max", "10",
               "--p-steps", "3", "--p-log", "--theta-steps", "2", "--out", str(out)])
    assert rc == 0
    ps = sorted({r.p for r in parse_csv(out)})
    assert ps[1] == pytest.approx(1.0)      # geometric midpoint of 0.1 and 10


def test_plot_script_flag(tmp_path):
    out = tmp_path / "rows.csv"
    gp = tmp_path / "rows.gp"
    rc = main(["scan", "--process", "bhabha", "--p-min", "0.3", "--p-max", "0.4",
               "--p-steps", "2", "--theta-steps", "2", "--out", str(out),
               "--plot-script", str(gp)])
    assert rc == 0
    assert gp.exists() and str(out) in gp.read_text()


@pytest.mark.parametrize("script", ["x.csv", "./x.csv", "sub/../x.csv"])
def test_plot_script_onto_the_csv_exit_code(tmp_path, monkeypatch, capsys, script):
    # the plot script would overwrite the CSV just written: refused before scanning
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["scan", "--process", "moller", "--p-steps", "2", "--theta-steps", "2",
                 "--out", "x.csv", "--plot-script", script]) == 2
    assert "would overwrite the CSV" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["point", "--process", "moller", "--p", "1e80", "--theta", "1"],
    ["point", "--process", "compton", "--p", "1e-170", "--theta", "1"],
    ["scan", "--process", "moller", "--p-min", "1e77", "--p-max", "2e77", "--p-steps", "2",
     "--theta-steps", "2", "--out", "x.csv"],
    ["threshold", "--process", "moller", "--theta", "1", "--p-bracket", "1e-70,2"],
])
def test_momenta_outside_the_range_exit_code(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert ("bad bracket" if argv[0] == "threshold" else "must lie in") in err
    assert not (tmp_path / "x.csv").exists()
