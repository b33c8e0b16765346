import numpy as np
import pytest

from qsprep import blockenc, pipeline
from qsprep.errors import DimensionError, InfeasibleError, InputError
from qsprep.oracle import AmplitudeOracle, ValueClasses
from qsprep.phases import _memo
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


def test_tiny_table_is_refused_as_infeasible():
    # gamma is 2.5e-321, and 3 / (epsilon gamma) overflows to infinity
    oracle = AmplitudeOracle(2, 8, np.array([1e-160, 0.0, 0.0, 0.0]))
    with pytest.raises(InfeasibleError, match="no room in the error budget"):
        prepare_state(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))


@pytest.mark.parametrize("tiny", [1e-300, 5e-324])
def test_underflowing_gamma_is_named_as_such(tiny):
    # the table is not zero: its mean square underflows
    oracle = AmplitudeOracle(2, 8, np.array([tiny, 0.0, 0.0, 0.0]))
    with pytest.raises(InfeasibleError, match="underflows") as info:
        prepare_state(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
    assert f"{tiny:.3e}" in str(info.value)
    assert "identically zero" not in str(info.value)


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
    assert rep.info["levels"] == 2


def test_grover_past_sign_degree_2000():
    # n = 13 once needed sign degree 2329, where the completion's root
    # product overflowed before it was taken in logarithms; the fixed-point
    # plan amplifies it in 877 rounds
    rep = grover_case(13, 8189, 0.1, 0.05)
    assert rep.degrees[1] == 877
    assert rep.all_passed, [c.name for c in rep.bound_checks if not c.passed]
    assert int(np.argmax(np.abs(rep.final_state.amplitudes))) == 8189


@pytest.mark.parametrize("n", range(0, 13))
def test_generated_oracles_run_like_the_table_built_by_hand(n):
    size = 2**n
    for generated, table in (
        (AmplitudeOracle.uniform(n, 8), np.ones(size)),
        (AmplitudeOracle.indicator(n, size // 3, 8), np.eye(size)[size // 3]),
    ):
        mine, theirs = (verify_error_bounds(PrepConfig(oracle=o, epsilon=0.05, delta=0.1))
                        for o in (generated, AmplitudeOracle(n, 8, table)))
        assert mine.degrees == theirs.degrees and mine.oracle_calls == theirs.oracle_calls
        assert [(c.name, c.passed) for c in mine.bound_checks] == [
            (c.name, c.passed) for c in theirs.bound_checks
        ]
        for a, b in zip(mine.bound_checks, theirs.bound_checks):
            assert abs(a.lhs - b.lhs) <= 1e-15
        assert abs(mine.success_probability - theirs.success_probability) <= 1e-15
        assert abs(mine.fidelity_to_target - theirs.fidelity_to_target) <= 1e-15
        gap = np.abs(mine.final_state.amplitudes - theirs.final_state.amplitudes).max()
        assert gap <= 1e-15


def test_grover_at_32_qubits_passes_every_check_without_a_table(monkeypatch):
    # 2^32 indices in two classes: no 2^n-sized array is built, and the
    # 634469 amplification rounds reach the success the plan predicts at
    # the singular value the engine actually amplifies
    def no_table(*args):
        raise AssertionError("a 2^n-sized array was built")

    monkeypatch.setattr(ValueClasses, "expand", no_table)
    cfg = PrepConfig(oracle=AmplitudeOracle.indicator(32, 5, 8), epsilon=0.05, delta=0.1)
    run = pipeline._execute(cfg)
    rep = pipeline._bound_report(run)
    assert rep.all_passed, [c.name for c in rep.bound_checks if not c.passed]
    assert rep.degrees[1] == 634469 and run.levels == 2
    counts = run.value_classes.counts
    sigma = np.sqrt(counts @ run.encoding.diagonal**2 / 2**32)
    assert abs(rep.success_probability - run.plan.predicted_success(sigma)) <= 1e-10
    assert rep.info["gamma"] == 2.0**-32


def test_grover_rejects_out_of_range():
    with pytest.raises(ValueError):
        grover_case(2, 4, delta=0.1, epsilon=0.05)
    # True is not item 1: as an index it would mark all 8 entries and
    # prepare the uniform state
    with pytest.raises(InputError, match="marked item"):
        grover_case(3, True, delta=0.1, epsilon=0.05)


@pytest.mark.parametrize("m", [0, 51, 2.5, 8.0, True], ids=["zero", "past-max", "float",
                                                             "integral-float", "bool"])
def test_config_refuses_bad_value_bits(m):
    # a run takes no value-bit count of its own; the table it reads refuses a bad one
    with pytest.raises(TypeError):
        PrepConfig(oracle=AmplitudeOracle.uniform(2, 8), epsilon=0.05, delta=0.1, m=m)
    with pytest.raises(InputError, match="value bits"):
        PrepConfig(oracle=AmplitudeOracle.uniform(2, m), epsilon=0.05, delta=0.1)


def test_sweep_empty_spec():
    rows = sweep(SweepSpec(ns=(), dists=(), epsilons=(), deltas=()))
    csv_text = sweep_to_csv(rows)
    assert csv_text.splitlines()[0].startswith("n,m,gamma")
    assert len(csv_text.splitlines()) == 1


def test_sweep_single_run_consistency():
    spec = SweepSpec(ns=(2,), dists=("indicator:1",), epsilons=(0.05,), deltas=(0.1,))
    rows = sweep(spec)
    assert len(rows) == 1
    row = rows[0]
    oracle = AmplitudeOracle.indicator(2, 1, 8)
    rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
    assert row["oracle_calls"] == rep.oracle_calls
    assert row["fidelity"] == pytest.approx(rep.fidelity_to_target)
    assert row["pass"] is True and row["status"] == "ok"


def test_sweep_deterministic_output():
    spec = SweepSpec(ns=(2,), dists=("uniform", "indicator:0"), epsilons=(0.1,), deltas=(0.1,))
    a = sweep_to_csv(sweep(spec))
    b = sweep_to_csv(sweep(spec))
    assert a == b


def test_sweep_records_failures_as_rows():
    spec = SweepSpec(ns=(2,), dists=("uniform",), epsilons=(0.9,), deltas=(0.1,))
    rows = sweep(spec)
    assert len(rows) == 1
    assert rows[0]["status"].startswith("error")
    assert rows[0]["pass"] is False


def test_constant_table_meets_sqrt_gamma_bound_with_equality():
    # a constant table 3/4 with a constant error 1/8, in exact binary
    # arithmetic: sqrt(gamma) = 3/4 and sqrt(gamma~) = 7/8, so
    # |sqrt(gamma) - sqrt(gamma~)| equals eps, above eps / (sqrt(2) sqrt(gamma))
    # because gamma = 9/16 > 1/2
    c = np.full(16, 0.75)
    c_err = c + 0.125
    eps = np.abs(c_err - c).max()
    g, g_err = np.mean(c**2), np.mean(c_err**2)
    lhs = abs(np.sqrt(g) - np.sqrt(g_err))
    assert lhs == eps == 0.125
    assert lhs > eps / (np.sqrt(2.0) * np.sqrt(g))
    # the pipeline's uniform table attains the bound too (at its m = 7) and
    # passes every check
    rep = verify_error_bounds(PrepConfig(oracle=AmplitudeOracle.uniform(2, 6), epsilon=0.1, delta=0.1))
    assert rep.info["m"] == 7
    by_name = {c.name: c for c in rep.bound_checks}
    assert by_name["sqrt_gamma_diff_le_eps"].lhs == pytest.approx(rep.info["eps_measured"], rel=1e-9)
    assert rep.all_passed, [c.name for c in rep.bound_checks if not c.passed]


def test_final_state_close_to_realized_amplitudes():
    rng = np.random.default_rng(3)
    oracle = AmplitudeOracle(3, 8, rng.uniform(0.2, 1.0, 8))
    cfg = PrepConfig(oracle=oracle, epsilon=0.02, delta=0.1)
    rep = verify_error_bounds(cfg)
    # the post-selected state matches the classically predicted one to
    # simulator precision; only the polynomial error separates it from target
    assert rep.info["final_error"] <= rep.info["bound_3eps_over_gamma"]
    assert rep.info["eps_measured"] <= rep.info["gamma"] / 4


def test_final_state_refusal_repeats_on_every_read(monkeypatch):
    # a refused read keeps what the state is built from, so a later read
    # refuses again, and builds it once the limit allows
    monkeypatch.setattr("qsprep.oracle.MAX_TABLE_QUBITS", 3)
    rep = prepare_state(PrepConfig(oracle=AmplitudeOracle.indicator(4, 1, 8), epsilon=0.05, delta=0.1))
    for _ in range(2):
        with pytest.raises(DimensionError):
            rep.final_state
    monkeypatch.undo()
    assert int(np.argmax(np.abs(rep.final_state.amplitudes))) == 1
    assert rep.final_state is rep.final_state


def test_pipeline_compression_is_rank_one():
    # between the flag projector and the initial-state projector, the
    # generator encoding compresses to sigma |w><Psi| exactly
    from qsprep.amplifier import build_projectors
    from qsprep.blockenc import hamiltonian_from_unitary, lcu_real_part, sine_block_encoding
    from qsprep.simulator import UnitaryMatrix

    rng = np.random.default_rng(31)
    n = 3
    c = rng.uniform(0.2, 0.9, 2**n)
    u = UnitaryMatrix(np.diag(np.exp(1j * np.pi * 0.5 * c / 2.0)))
    # the dense C, composed from the reference functions on the engine's angles
    phases = hamiltonian_from_unitary(np.diag(u.entries), 1e-5, 0.29).phases
    be = lcu_real_part(sine_block_encoding(u), phases)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    s = np.array([[1.0]])
    for _ in range(n):
        s = np.kron(s, had)
    s_u = UnitaryMatrix(s.astype(complex))
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


def _outcome(rep):
    """Everything a report computes, for comparison with ``==``."""
    return (
        rep.final_state.amplitudes.tolist(),
        rep.oracle_calls,
        rep.success_probability,
        rep.degrees,
        [(c.name, c.lhs, c.rhs, c.passed) for c in rep.bound_checks],
    )


def _clear_memos():
    blockenc._encoding.cache_clear()
    _memo.cache_clear()


def _cold_then_warm(run):
    _clear_memos()
    cold = run()
    hits = blockenc._encoding.cache_info().hits
    warm = run()
    # the second run was served by the encoding memo
    assert blockenc._encoding.cache_info().hits > hits
    return cold, warm


def test_memo_warm_run_equals_cold_random_table():
    rng = np.random.default_rng(17)
    oracle = AmplitudeOracle(5, 8, rng.uniform(0.05, 1.0, 32))
    cold, warm = _cold_then_warm(
        lambda: _outcome(verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))))
    assert warm == cold


def test_memo_warm_run_equals_cold_search():
    cold, warm = _cold_then_warm(lambda: _outcome(grover_case(4, 11, 0.1, 0.05)))
    assert warm == cold


def test_memo_sweep_rows_with_repeated_targets_equal_cold_rows(monkeypatch):
    # rows with one epsilon and the same quantized values share the
    # encoding, so the second row reuses the first's; each cold row runs on
    # empty memos
    reports = []
    inner = pipeline.verify_error_bounds

    def keep_report(cfg):
        reports.append(inner(cfg))
        return reports[-1]

    monkeypatch.setattr(pipeline, "verify_error_bounds", keep_report)
    grid = {"n": [2], "epsilon": [0.05], "delta": [0.1]}
    cold_rows = []
    for dist in ("indicator:1", "indicator:2"):
        _clear_memos()
        cold_rows += sweep(SweepSpec.from_dict({**grid, "dist": [dist]}))
    cold = [_outcome(r) for r in reports]
    reports.clear()
    _clear_memos()
    warm_rows = sweep(SweepSpec.from_dict({**grid, "dist": ["indicator:1", "indicator:2"]}))
    assert blockenc._encoding.cache_info().hits == 1
    assert warm_rows == cold_rows
    assert [_outcome(r) for r in reports] == cold


def test_memo_shares_the_arcsin_angles_between_tables():
    rng = np.random.default_rng(23)
    _clear_memos()
    hits = []
    for _ in range(2):
        oracle = AmplitudeOracle(6, 8, rng.uniform(0.05, 1.0, 64))
        verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
        hits.append(_memo.cache_info().hits)
    assert hits[1] > hits[0]


def test_sweep_calls_the_module_verify_error_bounds_once_per_row_in_grid_order(monkeypatch):
    # a caller that rebinds pipeline.verify_error_bounds sees one call per
    # grid row, in the grid's order, also for a row that fails inside it
    seen = []
    inner = pipeline.verify_error_bounds

    def recording(cfg):
        seen.append((cfg.oracle.n, cfg.oracle.values.tolist(), cfg.epsilon, cfg.delta))
        return inner(cfg)

    monkeypatch.setattr(pipeline, "verify_error_bounds", recording)
    grid = {"n": [2, 3], "dist": ["indicator:1", "gaussian:1,1"],
            "epsilon": [0.9, 0.05], "delta": [0.1, 0.2]}
    rows = sweep(SweepSpec.from_dict(grid))
    expected = [
        (n, AmplitudeOracle.from_dist(n, 8, dist).values.tolist(), eps, delta)
        for n in grid["n"] for dist in grid["dist"]
        for eps in grid["epsilon"] for delta in grid["delta"]
    ]
    assert seen == expected
    assert len(rows) == len(expected)
    assert [row["status"].startswith("error") for row in rows] == [e[2] == 0.9 for e in expected]


def test_encoding_memo_keeps_no_fine_grained_level_sets():
    # a random table at n = 14 and eps = 1e-3 runs at m = 16 with more levels
    # than the memo keeps: the encoding memo stores nothing for it, and after
    # the run returns the memos hold next to nothing
    import tracemalloc

    _clear_memos()
    values = np.random.default_rng(0).uniform(0.0, 1.0, 2**14)
    oracle = AmplitudeOracle(14, 8, values)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=1e-3, delta=0.1))
        assert rep.info["levels"] > blockenc._MEMO_MAX_LEVELS
        assert blockenc._encoding.cache_info().currsize == 0
        del rep
        assert tracemalloc.get_traced_memory()[0] - base < 20e6
    finally:
        tracemalloc.stop()


def test_encoding_memo_serves_default_m_sweep_and_search_tables(monkeypatch):
    def hit(run):
        before = blockenc._encoding.cache_info().hits
        run()
        return blockenc._encoding.cache_info().hits > before

    # search: two levels, whatever the marked item and delta
    for n in (3, 12):
        _clear_memos()
        assert not hit(lambda: grover_case(n, 1, 0.1, 0.05))
        assert hit(lambda: grover_case(n, 2**n - 1, 0.12, 0.05))
    # a default-m random table near the memo's level limit (m = 12 at eps 0.01)
    oracle = AmplitudeOracle(14, 8, np.random.default_rng(3).uniform(0.0, 1.0, 2**14))
    _clear_memos()
    assert not hit(lambda: verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.01, delta=0.1)))
    assert hit(lambda: verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.01, delta=0.2)))
    # sweep rows that differ only in delta share the table's encoding
    hits = []
    inner = pipeline.verify_error_bounds

    def recording(cfg):
        before = blockenc._encoding.cache_info().hits
        rep = inner(cfg)
        hits.append(blockenc._encoding.cache_info().hits > before)
        return rep

    monkeypatch.setattr(pipeline, "verify_error_bounds", recording)
    _clear_memos()
    rows = sweep(SweepSpec.from_dict({"n": [2, 8], "dist": ["indicator:1", "gaussian:2,1.5"],
                                      "epsilon": [0.05, 0.1], "delta": [0.1, 0.2]}))
    assert all(row["status"] == "ok" for row in rows)
    assert hits[1::2] == [True] * (len(rows) // 2)


@pytest.mark.parametrize("values", [
    (np.arange(8) + 0.5) / 8,  # distinct levels, ascending: the identity path
    np.repeat([0.125, 0.375, 0.625, 0.875], 2) + np.tile([0.0, 1e-6], 4),  # neighbours share a level
    np.random.default_rng(5).uniform(0.0, 1.0, 2**10),
], ids=["ascending-levels", "shared-levels", "random-n10"])
def test_table_run_does_not_depend_on_the_order_of_its_entries(values):
    n = int(np.log2(values.size))
    perm = np.random.default_rng(6).permutation(values.size)

    def run(table):
        return verify_error_bounds(
            PrepConfig(oracle=AmplitudeOracle(n, 8, table), epsilon=0.05, delta=0.1))

    rep, shuffled = run(values), run(values[perm])
    for key in ("m", "levels"):
        assert shuffled.info[key] == rep.info[key]
    assert shuffled.degrees == rep.degrees
    assert shuffled.oracle_calls == rep.oracle_calls
    assert shuffled.success_probability == rep.success_probability
    assert [(c.name, c.passed) for c in shuffled.bound_checks] == [
        (c.name, c.passed) for c in rep.bound_checks]
    for a, b in zip(shuffled.bound_checks, rep.bound_checks):
        assert abs(a.lhs - b.lhs) <= 1e-15
    assert np.array_equal(shuffled.final_state.amplitudes, rep.final_state.amplitudes[perm])

