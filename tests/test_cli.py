import csv
import io
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qsprep
from qsprep import blockenc, cli, polyapprox
from qsprep.cli import main
from qsprep.errors import QsprepError
from qsprep.oracle import AmplitudeOracle, ValueClasses, oracle_to_text
from qsprep.phases import phases_from_text, reconstruct
from qsprep.pipeline import BoundCheck, prepare_state, verify_error_bounds
from qsprep.polyapprox import (
    Polynomial,
    arcsin_target,
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


def test_prepare_reports_the_m_it_quantized_at(tmp_path, capsys):
    # the file's header m is the compiled oracle's register width; the
    # preparation derives its own m from eps and gamma
    oracle_file = tmp_path / "oracle.txt"
    assert main(["make-oracle", "--n", "4", "--m", "8", "--dist", "gaussian:8,4",
                 "--out", str(oracle_file)]) == 0
    assert oracle_file.read_text().splitlines()[0] == "4 8"
    assert main(["prepare", "--oracle", str(oracle_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "m                    10" in lines
    assert lines.index("m                    10") + 1 == lines.index("levels               9")


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


def test_phases_command_strips_a_completion_file_in_double_precision(tmp_path, caplog):
    # a file carries no complementary series; the completion of its real
    # part supplies it, so no extended precision is needed
    poly = complete_to_complex(sign_approx(0.025, 0.1))
    assert poly.degree == 233
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text(poly_to_text(poly))
    caplog.set_level(logging.DEBUG, logger="qsprep.phases")
    start = time.perf_counter()
    assert main(["phases", str(poly_file), "--out", str(tmp_path / "phases.txt")]) == 0
    assert time.perf_counter() - start < 1.0
    assert not [r for r in caplog.records if r.name == "qsprep.phases"]


def test_grover_command(capsys):
    rc = main(["grover", "--n", "2", "--x0", "3", "--eps", "0.05", "--delta", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "calls_per_sqrt_n" in out
    # the marked item and the rest: two distinct quantized values
    assert "levels               2\n" in out


def test_sweep_command(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        '{"n": [2], "dist": ["gaussian:1.5,1.0"], "epsilon": [0.1], "delta": [0.1]}'
    )
    out_file = tmp_path / "out.csv"
    rc = main(["sweep", "--spec", str(spec_file), "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "n"


@pytest.mark.parametrize(
    "text",
    [
        '{"n": [2], "dist": ["uniform"], "epsilons": [0.1], "delta": [0.1]}',
        '{"n": 2, "dist": ["uniform"], "epsilon": [0.1], "delta": [0.1]}',
        '{"n": [2], "dist": ["uniform"], "epsilon": [0.1], "delta": [0.1], "seed": 3}',
        '{"n": [2], "dist": ["uniform"], "epsilon": [0.1',
        '{"n": [2], "dist": ["indicator:1"], "epsilon": [0.1], "delta": [0.1], "beta": 2}',
    ],
    ids=["unknown-key", "scalar-grid", "seed-key", "truncated", "beta-key"],
)
def test_sweep_rejects_bad_spec(tmp_path, capsys, text):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(text)
    out_file = tmp_path / "out.csv"
    rc = main(["sweep", "--spec", str(spec_file), "--out", str(out_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert not out_file.exists()


def test_error_exit_code(tmp_path, capsys):
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text(oracle_to_text(AmplitudeOracle.uniform(2, 6)))
    rc = main(["prepare", "--oracle", str(oracle_file), "--eps", "0.9", "--delta", "0.1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_search_past_its_capped_aim_exits_2(capsys):
    # m caps at 50 bits, whose quantization error leaves the polynomial less
    # than a sixteenth of the aim epsilon gamma / 3 = 9.2e-16
    rc = main(["grover", "--n", "24", "--x0", "1", "--eps", "4.64e-8", "--delta", "0.1"])
    assert rc == 2
    assert "no room in the error budget" in capsys.readouterr().err


def test_search_whose_capped_aim_leaves_the_arcsin_transform_under_its_floor_exits_2(capsys):
    # aim 2.5e-15: after the 2^-50 quantization the polynomial would get
    # 1.7e-15, under the 1.8e-15 (generator error 2^-51) the double-precision
    # transform needs; the run is refused, where it once ran at 2^-54 and
    # passed or failed its aim by rounding
    rc = main(["grover", "--n", "17", "--x0", "1", "--eps", "1e-9", "--delta", "0.1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no room in the error budget" in err and "least share 1.776e-15" in err


def test_arcsin_target_over_the_l1_limit_is_refused(capsys, monkeypatch):
    # a target whose Chebyshev l1 norm, its sup, exceeds REAL_TARGET_SUP
    # before any gain is refused, by the library as a QsprepError and
    # by the command line with exit code 2; the memos are emptied on both
    # sides, so no target checked against the other limit is reused
    blockenc._encoding.cache_clear()
    blockenc._phases_at_cut.cache_clear()
    monkeypatch.setattr(polyapprox, "REAL_TARGET_SUP", 0.3)
    try:
        with pytest.raises(QsprepError, match="l1 norm"):
            arcsin_target(1e-6, 0.29)
        with pytest.raises(QsprepError, match="l1 norm"):
            blockenc.hamiltonian_from_unitary(np.array([0.1, 0.5]), 1e-6, 0.29)
        rc = main(["grover", "--n", "3", "--x0", "5", "--eps", "0.05", "--delta", "0.1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and "l1 norm" in captured.err
        assert "Traceback" not in captured.err + captured.out
    finally:
        blockenc._encoding.cache_clear()
        blockenc._phases_at_cut.cache_clear()


@pytest.mark.parametrize("command", ["prepare", "verify-bounds", "grover"])
@pytest.mark.parametrize("option", ["--m", "--total-failure"])
def test_runs_reject_value_bits_and_total_failure_options(tmp_path, capsys, command, option):
    # a run quantizes at the m it derives from eps and gamma, and eps and
    # delta are its only budgets
    if command == "grover":
        argv = ["grover", "--n", "2", "--x0", "1"]
    else:
        oracle_file = tmp_path / "oracle.txt"
        oracle_file.write_text(oracle_to_text(AmplitudeOracle.uniform(2, 6)))
        argv = [command, "--oracle", str(oracle_file)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, "6"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"unrecognized arguments: {option} 6" in err


def test_bound_check_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a constant table meets every inequality, one of them with equality;
    # a report with a failed check still prints, and the exit code reports it
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text(oracle_to_text(AmplitudeOracle.uniform(2, 6)))
    args = ["verify-bounds", "--oracle", str(oracle_file), "--eps", "0.1", "--delta", "0.1"]
    assert main(args) == 0
    assert "[FAIL]" not in capsys.readouterr().out

    def with_failed_check(cfg):
        rep = verify_error_bounds(cfg)
        rep.bound_checks.append(BoundCheck.le("failed_check", 1.0, 0.0))
        return rep

    monkeypatch.setattr(cli, "verify_error_bounds", with_failed_check)
    rc = main(args)
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] failed_check" in out


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


@pytest.mark.parametrize("header", ["-1 8", "25 8", "2 0", "2 51"])
def test_prepare_rejects_out_of_range_oracle_header(tmp_path, capsys, header):
    # the header is refused before any amplitude line is read, so an
    # unreadable line after it does not change the message
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text("\n".join([header, "0.5", "not-a-number"]) + "\n")
    rc = main(["prepare", "--oracle", str(oracle_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: oracle table header: need ")


def assert_one_error_line(capsys, rc):
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("text, message", [
    ("2\n0.5\n0.25\n0.75\n1\n", "error: malformed oracle table header: "),
    ("2 6\n0.5\nhalf\n0.75\n1\n", "error: malformed oracle table: could not convert"),
], ids=["malformed-header", "non-numeric-amplitude"])
def test_prepare_rejects_an_unparsable_oracle_file(tmp_path, capsys, text, message):
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text(text)
    rc = main(["prepare", "--oracle", str(oracle_file)])
    assert assert_one_error_line(capsys, rc).startswith(message)


@pytest.mark.parametrize("spec, message", [
    ([{"n": [2]}], "error: a sweep spec must be a JSON object"),
    ({"n": [2.5], "dist": ["uniform"], "epsilon": [0.1], "delta": [0.1]},
     "error: sweep spec 'n' has entries of the wrong type: [2.5]"),
], ids=["not-an-object", "mistyped-grid-entry"])
def test_sweep_rejects_a_spec_of_the_wrong_shape(tmp_path, capsys, spec, message):
    rc, out_file = _run_sweep(tmp_path, spec)
    assert assert_one_error_line(capsys, rc).rstrip("\n") == message
    assert not out_file.exists()


def _run_sweep(tmp_path, spec):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "out.csv"
    rc = main(["sweep", "--spec", str(spec_file), "--out", str(out_file)])
    return rc, out_file


@pytest.mark.parametrize(
    "change",
    # a generated indicator runs past the table limit; a gaussian is a table
    [{"dist": ["foo"]}, {"dist": ["indicator:9"]}, {"epsilon": [-0.1]},
     {"n": [25], "dist": ["gaussian:2,1.5"]}],
    ids=["unknown-dist", "indicator-out-of-range", "negative-eps", "too-many-qubits"],
)
def test_sweep_bad_grid_point_becomes_error_row(tmp_path, capsys, change):
    spec = {"n": [2], "dist": ["indicator:1"], "epsilon": [0.1], "delta": [0.1], **change}
    rc, out_file = _run_sweep(tmp_path, spec)
    captured = capsys.readouterr()
    assert rc == 1
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert len(rows) == 1
    assert rows[0]["status"].startswith("error: ") and rows[0]["pass"] == "False"
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("change", [{"m": "8"}, {"beta": "half"}], ids=["unknown-m", "string-beta"])
def test_sweep_rejects_mistyped_setting(tmp_path, capsys, change):
    spec = {"n": [2], "dist": ["indicator:1"], "epsilon": [0.1], "delta": [0.1], **change}
    rc, out_file = _run_sweep(tmp_path, spec)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown sweep spec keys") and repr(next(iter(change))) in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["prepare", "--eps", "-1"], "got -1"),
        (["make-oracle", "--n", "2", "--dist", "uniform", "--m", "70"], "got 70"),
        (["make-oracle", "--n", "2", "--dist", "uniform", "--m", "0"], "got 0"),
        (["grover", "--n", "2", "--x0", "7"], "marked item 7"),
    ],
    ids=["negative-eps", "m-above-50", "m-zero", "x0-out-of-range"],
)
def test_bad_arguments_exit_2(tmp_path, capsys, argv, named):
    if argv[0] == "prepare":
        oracle_file = tmp_path / "oracle.txt"
        oracle_file.write_text(oracle_to_text(AmplitudeOracle.uniform(2, 6)))
        argv = [argv[0], "--oracle", str(oracle_file), *argv[1:]]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_prepare_rejects_beta_option(tmp_path, capsys):
    # the amplitude rescale is the constant pipeline.BETA
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text(oracle_to_text(AmplitudeOracle.uniform(2, 6)))
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--oracle", str(oracle_file), "--beta", "0.4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --beta" in capsys.readouterr().err


def test_phases_accepts_well_formed_polynomial_file(tmp_path, capsys):
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text("chebyshev odd 1\n0 0\n1 0\n")  # P = x, one angle
    assert main(["phases", str(poly_file)]) == 0
    assert len(phases_from_text(capsys.readouterr().out)) == 1


# each is the well-formed file above with one defect
@pytest.mark.parametrize(
    "text",
    [
        "abc 0\n0 0\n",
        "",
        "chebyshev odd one\n0 0\n1 0\n",
        "chebyshev odd -1\n0 0\n1 0\n",
        "chebyshev odd 1\n0 0\n1 x\n",
        "chebyshev odd 1\n0 0\n1\n",
        "chebyshev odd 1\n0 0\nnan 0\n",
        "chebyshev odd 3\n0 0\n1 0\n",
        "chebyshev odd 1\n0 0\n1 0\n0 0\n",
        "monomial odd 1\n0 0\n1 0\n",
    ],
    ids=["short-header", "empty", "degree-not-int", "negative-degree", "bad-number", "one-number",
         "nan", "too-few-lines", "too-many-lines", "monomial-header"],
)
def test_phases_rejects_malformed_polynomial_file(tmp_path, capsys, text):
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text(text)
    rc = main(["phases", str(poly_file)])
    captured = capsys.readouterr()
    assert rc == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err + captured.out


def test_phases_refuses_a_polynomial_below_one_at_the_ends(tmp_path, capsys):
    d = 1001
    c = np.zeros(d + 1)
    c[d] = 0.5
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text(poly_to_text(Polynomial(c, "odd")))
    rc = main(["phases", str(poly_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "|P(1)| = 0.5" in captured.err


def run_python(args, timeout):
    """A fresh interpreter that imports this checkout's qsprep."""
    env = {**os.environ, "PYTHONPATH": str(Path(qsprep.__file__).parent.parent)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_phases_refuses_a_degree_above_the_limit(tmp_path):
    # the degree is refused before any check builds its ~40000-point grid
    from qsprep.polyapprox import MAX_DEGREE

    d = MAX_DEGREE + 1
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text(f"chebyshev odd {d}\n" + "0 0\n" * d + "0.5 0\n")
    out = run_python(["-m", "qsprep.cli", "phases", str(poly_file)], timeout=30)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and f"degree {d} exceeds" in out.stderr
    assert out.stdout == "" and "Traceback" not in out.stderr


def test_make_oracle_rejects_too_many_qubits(capsys):
    rc = main(["make-oracle", "--n", "40", "--dist", "uniform"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "n = 40" in captured.err
    assert captured.out == ""


def test_make_oracle_refuses_a_generated_table_past_the_engine_limit(capsys):
    # the indicator's two classes exist at n = 30; its 2^30-line file may not
    rc = main(["make-oracle", "--n", "30", "--dist", "indicator:5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "n = 30" in lines[0]


def test_grover_refuses_42_qubits_by_its_round_count(capsys):
    # at delta 0.1 the n = 42 search runs in 10151485 rounds; at delta 0.001
    # it needs more than amplifier.MAX_ROUNDS and is refused before amplifying
    start = time.perf_counter()
    rc = main(["grover", "--n", "42", "--x0", "5", "--delta", "0.001"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "20941105" in lines[0]
    assert elapsed < 1.0


def test_grover_reports_32_qubits_without_building_a_state(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("a 2^n-sized array was built")

    monkeypatch.setattr(ValueClasses, "expand", no_table)
    rc = main(["grover", "--n", "32", "--x0", "5", "--eps", "0.05", "--delta", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sign_degree          317235" in out and "[FAIL]" not in out
    assert "calls_per_sqrt_n" in out


READERS = {
    "phases": lambda path, tmp: ["phases", path],
    "prepare": lambda path, tmp: ["prepare", "--oracle", path],
    "verify-bounds": lambda path, tmp: ["verify-bounds", "--oracle", path],
    "sweep": lambda path, tmp: ["sweep", "--spec", path, "--out", str(tmp / "out.csv")],
}


def assert_refused(capsys, argv, path):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
@pytest.mark.parametrize("command", sorted(READERS))
def test_unreadable_input_file_exits_2(tmp_path, capsys, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"\xff\xfe2 6\n")
    assert_refused(capsys, READERS[command](str(path), tmp_path), path)


@pytest.mark.parametrize("command", ["phases", "sweep", "make-oracle"])
def test_unwritable_output_file_exits_2(tmp_path, capsys, command):
    poly = tmp_path / "poly.txt"
    poly.write_text("chebyshev odd 1\n0 0\n1 0\n")
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": [2], "dist": ["indicator:1"], "epsilon": [0.1], "delta": [0.1]}')
    argv = {
        "phases": ["phases", str(poly)],
        "sweep": ["sweep", "--spec", str(spec)],
        "make-oracle": ["make-oracle", "--n", "2", "--dist", "uniform"],
    }[command]
    out = tmp_path / "no-such-dir" / "out.txt"
    assert_refused(capsys, [*argv, "--out", str(out)], out)
    assert not out.parent.exists()


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    built = []
    inner = cli.build_parser

    def counting():
        built.append(inner())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        oracle_file = tmp_path / "oracle.txt"
        oracle_file.write_text(oracle_to_text(AmplitudeOracle.uniform(2, 6)))
        for _ in range(3):
            assert main(["prepare", "--oracle", str(oracle_file)]) == 0
        assert main(["grover", "--n", "2", "--x0", "1"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_reused_parser_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    # each call sees only its own arguments: an option given once falls back
    # to its default on the next call
    configs = []

    def keep_config(cfg):
        configs.append(cfg)
        return prepare_state(cfg)

    monkeypatch.setattr(cli, "prepare_state", keep_config)
    oracle_file = tmp_path / "oracle.txt"
    oracle_file.write_text(oracle_to_text(AmplitudeOracle.uniform(2, 6)))
    base = ["prepare", "--oracle", str(oracle_file)]
    for extra in (["--eps", "0.08", "--delta", "0.2"], [], ["--delta", "0.15"], [], ["--eps", "0.08"], []):
        assert main(base + extra) == 0
    assert [(c.epsilon, c.delta) for c in configs] == [
        (0.08, 0.2), (0.05, 0.1), (0.05, 0.15), (0.05, 0.1), (0.08, 0.1), (0.05, 0.1),
    ]
    assert cli._parser.cache_info().currsize == 1


def test_import_loads_no_scipy():
    # scipy costs ~0.35 s to import and only sign_approx and the polish use it
    code = ("import sys, qsprep, qsprep.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = run_python(["-c", code], timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
