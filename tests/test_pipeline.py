import numpy as np
import pytest

from qsprep.errors import InfeasibleError
from qsprep.oracle import AmplitudeOracle
from qsprep.pipeline import (
    PrepConfig,
    SweepSpec,
    default_bits,
    grover_case,
    prepare_state,
    sweep,
    sweep_to_csv,
    verify_error_bounds,
)


def test_uniform_table_prepares_plus_state():
    oracle = AmplitudeOracle.uniform(2, 8)
    rep = prepare_state(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
    plus = np.ones(4) / 2.0
    assert np.abs(rep.final_state.amplitudes - plus).max() <= 0.05
    assert rep.all_passed


def test_indicator_prepares_basis_state():
    oracle = AmplitudeOracle.indicator(3, 5, 10)
    rep = prepare_state(PrepConfig(oracle=oracle, epsilon=0.01, delta=0.05))
    assert rep.fidelity_to_target >= 1 - 0.01
    assert rep.success_probability >= 0.95
    assert int(np.argmax(np.abs(rep.final_state.amplitudes))) == 5
    assert rep.all_passed


def test_gaussian_table_matches_normalized_vector():
    n = 4
    oracle = AmplitudeOracle.gaussian(n, mu=2 ** (n - 1), sigma=2 ** (n - 2), m=None or 10)
    eps = 0.02
    rep = prepare_state(PrepConfig(oracle=oracle, epsilon=eps, delta=0.1))
    xs = np.arange(2**n, dtype=float)
    brute = np.exp(-((xs - 2 ** (n - 1)) ** 2) / (2 * (2 ** (n - 2)) ** 2))
    brute = brute / np.linalg.norm(brute)
    overlap = abs(np.vdot(brute, rep.final_state.amplitudes))
    assert overlap >= 1 - eps


def test_error_bounds_random_tables():
    rng = np.random.default_rng(42)
    for _ in range(3):
        n = int(rng.integers(2, 5))
        oracle = AmplitudeOracle(n, 8, rng.uniform(0.05, 1.0, 2**n))
        rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
        assert rep.all_passed, [c for c in rep.bound_checks if not c.passed]
        names = {c.name for c in rep.bound_checks}
        assert "gamma_diff_le_2eps" in names
        assert "state_dist_le_3eps_over_gamma" in names


def test_adversarial_uniform_shift_gamma_perturbation():
    # c~ = c + eps shifts gamma by at most 2 eps, and by at least eps when
    # the mean amplitude is at least 1/2: |c~^2 - c^2| = eps |c~ + c|
    rng = np.random.default_rng(7)
    c = rng.uniform(0.5, 0.9, 64)
    eps = 1e-3
    shifted = c + eps
    g, gs = np.mean(c**2), np.mean(shifted**2)
    assert abs(gs - g) <= 2 * eps
    assert abs(gs - g) >= eps  # tight within a factor of two here


def test_default_bits_formula():
    assert default_bits(0.01, 0.125) == int(np.ceil(np.log2(3 / (0.01 * 0.125)))) + 2


def test_infeasible_epsilon_rejected():
    oracle = AmplitudeOracle.uniform(2, 8)
    with pytest.raises(InfeasibleError):
        prepare_state(PrepConfig(oracle=oracle, epsilon=0.9, delta=0.1))


def test_zero_table_rejected():
    oracle = AmplitudeOracle(2, 8, np.zeros(4))
    with pytest.raises(InfeasibleError):
        prepare_state(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))


def test_oracle_call_accounting():
    oracle = AmplitudeOracle.indicator(2, 3, 8)
    rep = prepare_state(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
    d_a, d_s = rep.degrees
    # hand count: per round one use of C or its adjoint; each C queries the
    # controlled phase unitary twice per transform layer (both select
    # branches share them); each query is an O_c / O_c-dagger pair
    assert rep.oracle_calls == 2 * (2 * d_a) * d_s


def test_calls_monotone_in_epsilon():
    oracle = AmplitudeOracle.gaussian(3, 4.0, 2.0, 10)
    calls = [
        prepare_state(PrepConfig(oracle=oracle, epsilon=e, delta=0.1)).oracle_calls
        for e in (0.2, 0.05, 0.01)
    ]
    assert calls[0] <= calls[1] <= calls[2]


def test_grover_small_case():
    rep = grover_case(2, 3, delta=0.1, epsilon=0.05)
    assert rep.info["gamma"] == pytest.approx(0.25)
    assert int(np.argmax(np.abs(rep.final_state.amplitudes))) == 3
    assert rep.fidelity_to_target >= 1 - 0.05
    assert rep.all_passed
    assert rep.info["calls_per_sqrt_n"] == rep.oracle_calls / 2.0


def test_grover_past_sign_degree_2000():
    # n = 13 needs sign degree 2329, where the completion's root product
    # overflowed before it was taken in logarithms
    rep = grover_case(13, 8189, 0.1, 0.05)
    assert rep.degrees[1] == 2329
    assert rep.all_passed, [c.name for c in rep.bound_checks if not c.passed]
    assert int(np.argmax(np.abs(rep.final_state.amplitudes))) == 8189


def test_grover_rejects_out_of_range():
    with pytest.raises(ValueError):
        grover_case(2, 4, delta=0.1, epsilon=0.05)


def test_sweep_empty_spec():
    rows = sweep(SweepSpec(ns=(), dists=(), epsilons=(), deltas=()))
    csv_text = sweep_to_csv(rows)
    assert csv_text.splitlines()[0].startswith("n,m,gamma")
    assert len(csv_text.splitlines()) == 1


def test_sweep_single_run_consistency():
    spec = SweepSpec(ns=(2,), dists=("indicator:1",), epsilons=(0.05,), deltas=(0.1,), m=8)
    rows = sweep(spec)
    assert len(rows) == 1
    row = rows[0]
    oracle = AmplitudeOracle.indicator(2, 1, 8)
    rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1, m=8))
    assert row["oracle_calls"] == rep.oracle_calls
    assert row["fidelity"] == pytest.approx(rep.fidelity_to_target)
    assert row["pass"] is True and row["status"] == "ok"


def test_sweep_deterministic_output():
    spec = SweepSpec(
        ns=(2,), dists=("uniform", "indicator:0"), epsilons=(0.1,), deltas=(0.1,), m=6
    )
    a = sweep_to_csv(sweep(spec))
    b = sweep_to_csv(sweep(spec))
    assert a == b


def test_sweep_records_failures_as_rows():
    spec = SweepSpec(ns=(2,), dists=("uniform",), epsilons=(0.9,), deltas=(0.1,))
    rows = sweep(spec)
    assert len(rows) == 1
    assert rows[0]["status"].startswith("error")
    assert rows[0]["pass"] is False


def test_constant_table_saturates_sqrt_gamma_constant():
    # a constant table realizes a uniform amplitude error, which saturates
    # |sqrt(gamma) - sqrt(gamma~)| at eps; the inequality's printed constant
    # 1/sqrt(2) is then unattainable while every other check passes
    rep = verify_error_bounds(PrepConfig(oracle=AmplitudeOracle.uniform(2, 6), epsilon=0.1, delta=0.1, m=6))
    by_name = {c.name: c for c in rep.bound_checks}
    assert not by_name["sqrt_gamma_diff_le_eps_over_sqrt2_gamma"].passed
    assert by_name["gamma_diff_le_2eps"].passed
    assert by_name["final_dist_le_3eps_over_gamma"].passed
    assert by_name["final_error_le_epsilon"].passed
    # the honestly derived constant sqrt(2) holds
    eps = rep.info["eps_measured"]
    g = rep.info["gamma"]
    lhs = by_name["sqrt_gamma_diff_le_eps_over_sqrt2_gamma"].lhs
    assert lhs <= np.sqrt(2.0) * eps / np.sqrt(g)


def test_final_state_close_to_realized_amplitudes():
    rng = np.random.default_rng(3)
    oracle = AmplitudeOracle(3, 8, rng.uniform(0.2, 1.0, 8))
    cfg = PrepConfig(oracle=oracle, epsilon=0.02, delta=0.1)
    rep = verify_error_bounds(cfg)
    # the post-selected state matches the classically predicted one to
    # simulator precision; only the polynomial error separates it from target
    assert rep.info["final_error"] <= rep.info["bound_3eps_over_gamma"]
    assert rep.info["eps_measured"] <= rep.info["gamma"] / 4


def test_pipeline_compression_is_rank_one():
    # between the flag projector and the initial-state projector, the
    # generator encoding compresses to sigma |w><Psi| exactly
    from qsprep.amplifier import build_projectors
    from qsprep.blockenc import hamiltonian_from_unitary, lcu_real_part, sine_block_encoding
    from qsprep.simulator import RegisterLayout, UnitaryMatrix

    rng = np.random.default_rng(31)
    n = 3
    c = rng.uniform(0.2, 0.9, 2**n)
    u = UnitaryMatrix(np.diag(np.exp(1j * np.pi * 0.5 * c / 2.0)), RegisterLayout.single(n))
    # the dense C, composed from the reference functions on the engine's angles
    phases = hamiltonian_from_unitary(np.diag(u.entries), 1e-5, 0.29).phases
    be = lcu_real_part(sine_block_encoding(u), phases)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    s = np.array([[1.0]])
    for _ in range(n):
        s = np.kron(s, had)
    s_u = UnitaryMatrix(s.astype(complex), RegisterLayout.single(n))
    flag, init = build_projectors(n, s_u, ancillas=2)
    comp = flag.matrix @ be.unitary.entries @ init.matrix
    svals = np.linalg.svd(comp, compute_uv=False)
    assert svals[1] <= 1e-10
    # top singular value equals ||H |+>||
    block = be.unitary.entries[: 2**n, : 2**n]
    plus = np.ones(2**n) / np.sqrt(2**n)
    assert svals[0] == pytest.approx(np.linalg.norm(block @ plus), abs=1e-12)


def test_extraction_error_bounded_by_polynomial_sup_error():
    # the realized generator error never exceeds the arcsin approximant's
    # sup error over the interval containing the sine spectrum
    from qsprep.blockenc import hamiltonian_from_unitary
    from qsprep.polyapprox import arcsin_taylor, evaluate
    from qsprep.simulator import op_dist

    rng = np.random.default_rng(32)
    h = rng.uniform(-0.2, 0.2, 8)
    eps, margin = 1e-5, 0.29
    be = hamiltonian_from_unitary(np.exp(1j * np.pi * h), eps, margin)
    ys = np.linspace(-1 + margin, 1 - margin, 20001)
    ref = arcsin_taylor(0.9 * eps, margin)
    sup_err = np.abs(evaluate(ref, ys).real - np.arcsin(ys) / np.pi).max()
    measured = op_dist(np.diag(be.diagonal), np.diag(h))
    assert measured <= max(sup_err, 1e-12) * (1 + 1e-6) + 0.05 * eps
