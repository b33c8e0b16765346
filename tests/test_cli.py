import numpy as np
import pytest

from qsprep.cli import main
from qsprep.oracle import AmplitudeOracle, oracle_to_text
from qsprep.phases import phases_from_text, reconstruct
from qsprep.polyapprox import (
    complete_to_complex,
    evaluate,
    poly_to_text,
    sign_approx,
)


def test_make_oracle_and_prepare(tmp_path, capsys):
    oracle_file = tmp_path / "oracle.txt"
    rc = main(["make-oracle", "--n", "2", "--m", "6", "--dist", "indicator:1",
               "--out", str(oracle_file)])
    assert rc == 0
    text = oracle_file.read_text()
    assert text.splitlines()[0] == "2 6"
    rc = main(["prepare", "--oracle", str(oracle_file), "--eps", "0.05", "--delta", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final_error_le_epsilon" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_bounds_command(tmp_path, capsys):
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text(oracle_to_text(AmplitudeOracle.gaussian(2, 1.5, 1.0, 8)))
    rc = main(["verify-bounds", "--oracle", str(oracle_file), "--eps", "0.05",
               "--delta", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gamma_diff_le_2eps" in out
    assert "state_dist_le_3eps_over_gamma" in out


def test_phases_command_round_trip(tmp_path):
    poly = complete_to_complex(sign_approx(0.3, 0.2))
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text(poly_to_text(poly))
    out_file = tmp_path / "phases.txt"
    rc = main(["phases", str(poly_file), "--out", str(out_file)])
    assert rc == 0
    phi = phases_from_text(out_file.read_text())
    xs = np.cos(np.pi * (np.arange(64) + 0.5) / 64)
    assert np.abs(reconstruct(phi, xs) - evaluate(poly, xs)).max() <= 1e-7


def test_grover_command(capsys):
    rc = main(["grover", "--n", "2", "--x0", "3", "--eps", "0.05", "--delta", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "calls_per_sqrt_n" in out


def test_sweep_command(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        '{"n": [2], "dist": ["gaussian:1.5,1.0"], "epsilon": [0.1], "delta": [0.1], "m": 8}'
    )
    out_file = tmp_path / "out.csv"
    rc = main(["sweep", "--spec", str(spec_file), "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "n"


def test_error_exit_code(tmp_path, capsys):
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text(oracle_to_text(AmplitudeOracle.uniform(2, 6)))
    rc = main(["prepare", "--oracle", str(oracle_file), "--eps", "0.9", "--delta", "0.1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_total_failure_split(tmp_path, capsys):
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text(oracle_to_text(AmplitudeOracle.uniform(2, 6)))
    rc = main(["prepare", "--oracle", str(oracle_file), "--total-failure", "0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1.000000e-01" in out  # both budgets became 0.1


def test_bound_check_failure_exit_code(tmp_path, capsys):
    # a constant table saturates one printed inequality; the run completes
    # but the exit code reports the failed check
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text(oracle_to_text(AmplitudeOracle.uniform(2, 6)))
    rc = main(["verify-bounds", "--oracle", str(oracle_file), "--eps", "0.1",
               "--delta", "0.1", "--m", "6"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL]" in out


@pytest.mark.parametrize(
    "amplitudes",
    [["nan", "0.5", "0.25", "1"], ["1.5", "0.5", "0.25", "1"], ["0.1", "0.5", "0.25", "1", "0.3"]],
    ids=["nan", "above-one", "extra-line"],
)
def test_prepare_rejects_bad_oracle_file(tmp_path, capsys, amplitudes):
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text("\n".join(["2 6", *amplitudes]) + "\n")
    rc = main(["prepare", "--oracle", str(oracle_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err + captured.out
