import itertools

import numpy as np
import pytest

from qsprep import blockenc, pipeline
from qsprep.errors import DimensionError, InfeasibleError, InputError
from qsprep.oracle import AmplitudeOracle, ValueClasses, _quantize
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
    rep = verify_error_bounds(cfg)
    assert rep.all_passed, [c.name for c in rep.bound_checks if not c.passed]
    assert rep.degrees[1] == 634469 and rep.info["levels"] == 2
    stage, encoding = pipeline._table_stage(cfg.oracle, cfg.epsilon)
    sigma = np.sqrt(np.array([2.0**32 - 1, 1.0]) @ encoding.diagonal**2 / 2**32)
    plan = pipeline.plan_amplification(rep.info["sigma"], cfg.delta)
    assert abs(rep.success_probability - plan.predicted_success(sigma)) <= 1e-10
    assert rep.info["gamma"] == 2.0**-32


@pytest.mark.parametrize(
    "oracle",
    [AmplitudeOracle.uniform(3, 8), AmplitudeOracle.indicator(20, 5, 8),
     AmplitudeOracle(6, 8, np.random.default_rng(4).uniform(0, 1, 64))],
    ids=["uniform-n3", "indicator-n20", "random-n6"],
)
def test_every_report_checks_the_amplification_premise(oracle):
    # the sigma the amplification reads, the norm of the encoded diagonal
    # over sqrt(N), sits at or above the plan's band edge, and the success
    # there is the plan's closed form, in prepare_state's report and
    # verify_error_bounds' alike, which both amplify the stage the oracle keeps
    cfg = PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1)
    stage, encoding = pipeline._table_stage(oracle, cfg.epsilon)
    plan = pipeline.plan_amplification(pipeline.BETA * np.sqrt(stage.gamma_quant) / 2, cfg.delta)
    _, _, counts = pipeline._levels(oracle.classes, stage.m)
    sigma = stage.sigma
    assert sigma == np.sqrt(encoding.diagonal**2 @ counts) / np.sqrt(oracle.size)
    # the encoded diagonal is BETA / 2 times the realized amplitudes
    assert sigma == pytest.approx(pipeline.BETA * np.sqrt(stage.gamma_realized) / 2, rel=1e-15)
    for rep in (prepare_state(cfg), verify_error_bounds(cfg)):
        assert oracle._stage is stage
        checks = {c.name: c for c in rep.bound_checks}
        edge, gap = checks["sigma_ge_band_edge"], checks["success_gap_to_predicted_le_1e-10"]
        assert edge.passed and edge.lhs == plan.band_edge and edge.rhs == sigma
        assert gap.passed and gap.rhs == 1e-10
        assert gap.lhs == abs(rep.success_probability - plan.predicted_success(sigma))


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


def test_gamma_checks_slack_scales_with_gamma():
    # search at n = 36 has gamma 1.5e-11 and eps_measured 4.5e-14, where an
    # absolute slack of 1e-12 would pass either gamma check at 10x its bound
    g, eps = 2.0**-36, 4.5e-14

    def passed(g_realized):
        stage = pipeline._TableStage(
            epsilon=0.05, m=40, sines=np.zeros(1), generator_error=1e-14, gamma_exact=g,
            gamma_quant=g, gamma_realized=g_realized, sigma=0.0, eps_measured=eps,
            realized_level=np.zeros(1), fidelity=1.0, final_error=0.0)
        return {c.name: c.passed for c in stage.checks}

    assert passed(g + 2.0 * eps)["gamma_diff_le_2eps"]
    assert not passed(g + 20.0 * eps)["gamma_diff_le_2eps"]
    assert passed((g**0.5 + eps) ** 2)["sqrt_gamma_diff_le_eps"]
    assert not passed((g**0.5 + 10.0 * eps) ** 2)["sqrt_gamma_diff_le_eps"]


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
    phases = hamiltonian_from_unitary(np.diag(u.entries).imag, 1e-5, 0.29).phases
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
    # the realized generator error never exceeds the arcsin target's sup
    # error over the interval containing the sine spectrum
    from qsprep.blockenc import hamiltonian_from_unitary
    from qsprep.polyapprox import arcsin_target, evaluate
    from qsprep.simulator import op_dist

    rng = np.random.default_rng(32)
    h = rng.uniform(-0.2, 0.2, 8)
    eps, margin = 1e-5, 0.29
    be = hamiltonian_from_unitary(np.sin(np.pi * h), eps, margin)
    ys = np.linspace(-1 + margin, 1 - margin, 20001)
    ref = arcsin_target(eps, margin)
    sup_err = np.abs(evaluate(ref, ys).real - np.arcsin(ys) / np.pi).max()
    measured = op_dist(np.diag(be.diagonal), np.diag(h))
    assert measured <= max(sup_err, 1e-12) * (1 + 1e-6) + 0.05 * eps


def _outcome(rep):
    """Everything a report computes, for comparison with ``==``."""
    return (
        rep.final_state.amplitudes.tolist(),
        rep.oracle_calls,
        rep.success_probability,
        rep.fidelity_to_target,
        rep.degrees,
        [(c.name, c.lhs, c.rhs, c.passed) for c in rep.bound_checks],
        rep.info,
    )


def _clear_memos():
    blockenc._encoding.cache_clear()
    blockenc._phases_at_cut.cache_clear()


def _cold_then_warm(run):
    _clear_memos()
    cold = run()
    hits = blockenc._encoding.cache_info().hits
    warm = run()
    # the second run was served by the encoding memo
    assert blockenc._encoding.cache_info().hits > hits
    return cold, warm


def test_memo_warm_run_equals_cold_random_table():
    # a new oracle of the same table keeps no stage, so its run looks the
    # encoding up in the memo
    values = np.random.default_rng(17).uniform(0.05, 1.0, 32)
    cold, warm = _cold_then_warm(lambda: _outcome(verify_error_bounds(
        PrepConfig(oracle=AmplitudeOracle(5, 8, values), epsilon=0.05, delta=0.1))))
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
        # the second table's encoding misses, and its target's cut is known
        hits.append(blockenc._phases_at_cut.cache_info().hits)
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


def _counting(monkeypatch, owner, name, seen, wrap=lambda f: f):
    """Rebind ``owner.name`` to record each call's arguments in ``seen``."""
    inner = getattr(owner, name)

    def call(*args):
        seen.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, wrap(call))


def test_sweep_builds_each_oracle_once(monkeypatch):
    # one oracle per (n, dist), whose stage the rows of one epsilon share;
    # every ok row still reads its encoding from one encoding call of its
    # own; a dist that fails to parse still gives one error row per (eps,
    # delta)
    built, stages, encodings = [], [], []
    _counting(monkeypatch, AmplitudeOracle, "from_dist", built, staticmethod)
    _counting(monkeypatch, pipeline, "_new_stage", stages)
    _counting(monkeypatch, pipeline, "hamiltonian_from_unitary", encodings)
    grid = {"n": [2, 3], "dist": ["indicator:1", "gaussian:1", "gaussian:1,1"],
            "epsilon": [0.9, 0.05, 0.1], "delta": [0.1, 0.2]}
    rows = sweep(SweepSpec.from_dict(grid))
    assert built == [(n, 8, dist) for n in grid["n"] for dist in grid["dist"]]
    # each good table computes one stage per epsilon; the infeasible 0.9 is
    # not kept, so both of its rows compute it
    assert [(o.n, eps) for o, eps in stages] == [
        (n, eps) for n in grid["n"] for _ in range(2) for eps in (0.9, 0.9, 0.05, 0.1)]
    bad = [row["status"] for row in rows if row["status"].startswith("error: bad distribution")]
    assert len(bad) == 2 * 3 * 2 and len(set(bad)) == 1
    assert len(encodings) == sum(row["status"] == "ok" for row in rows) == 2 * 2 * 2 * 2


def test_sweep_rows_and_reports_equal_rows_run_alone(monkeypatch):
    # rows that share an oracle and its stage report exactly what each row
    # reports run alone, on a fresh oracle with empty memos
    reports = []
    inner = pipeline.verify_error_bounds

    def keep_report(cfg):
        try:
            reports.append(inner(cfg))
        except InfeasibleError:
            reports.append(None)
            raise
        return reports[-1]

    def outcomes():
        return [None if rep is None else _outcome(rep) for rep in reports]

    monkeypatch.setattr(pipeline, "verify_error_bounds", keep_report)
    grid = {"n": [2, 4], "dist": ["uniform", "indicator:1", "gaussian:1,1.5"],
            "epsilon": [0.9, 0.05, 0.1], "delta": [0.1, 0.2]}
    _clear_memos()
    rows = sweep(SweepSpec.from_dict(grid))
    shared = outcomes()
    alone_rows, alone = [], []
    for n, dist, eps, delta in itertools.product(*grid.values()):
        _clear_memos()
        reports.clear()
        alone_rows += sweep(SweepSpec.from_dict(
            {"n": [n], "dist": [dist], "epsilon": [eps], "delta": [delta]}))
        alone += outcomes()
    assert rows == alone_rows
    assert shared == alone
    assert shared.count(None) == 2 * 3 * 2


def test_an_oracle_keeps_one_stage_and_recomputes_it_at_a_new_epsilon(monkeypatch):
    stages = []
    _counting(monkeypatch, pipeline, "_new_stage", stages)
    oracle = AmplitudeOracle(4, 8, np.random.default_rng(8).uniform(0.1, 1.0, 16))
    reports = [verify_error_bounds(PrepConfig(oracle=oracle, epsilon=eps, delta=delta))
               for eps, delta in [(0.05, 0.1), (0.05, 0.2), (0.1, 0.1), (0.05, 0.3), (0.05, 0.1),
                                  (0.5, 0.1), (np.float32(0.5), 0.1)]]
    # a new epsilon replaces the kept stage; an equal one of another type is
    # the same Python float in its config, and reuses it
    assert [eps for _, eps in stages] == [0.05, 0.1, 0.05, 0.5]
    assert all(type(eps) is float for _, eps in stages)
    assert oracle._stage is pipeline._table_stage(oracle, 0.5)[0]
    assert _outcome(reports[-1]) == _outcome(reports[-2])
    # reports of one stage share no mutable part: grover_case writes to info
    first, second = reports[:2]
    assert first.bound_checks is not second.bound_checks and first.info is not second.info
    assert _outcome(reports[0]) == _outcome(reports[4])
    fresh = verify_error_bounds(PrepConfig(oracle=AmplitudeOracle(4, 8, oracle.values), epsilon=0.1,
                                           delta=0.1))
    assert _outcome(reports[2]) == _outcome(fresh)


def test_a_float32_config_runs_as_python_floats():
    # numpy casts a float32 ratio against the largest double with an
    # overflow warning, which this suite raises; the config keeps floats
    oracle = AmplitudeOracle(4, 8, np.random.default_rng(3).uniform(0.1, 1.0, 16))
    cfg = PrepConfig(oracle=oracle, epsilon=np.float32(0.5), delta=np.float32(0.25))
    assert type(cfg.epsilon) is float and type(cfg.delta) is float
    rep = verify_error_bounds(cfg)
    assert rep.all_passed, [c for c in rep.bound_checks if not c.passed]
    plain = verify_error_bounds(PrepConfig(oracle=AmplitudeOracle(4, 8, oracle.values), epsilon=0.5,
                                           delta=0.25))
    assert _outcome(rep) == _outcome(plain)


@pytest.mark.parametrize("n, epsilon", [(16, 1e-8), (20, 1e-8), (20, 1e-6)])
def test_search_meets_its_own_amplitude_aim_at_small_epsilon(n, epsilon):
    # the quantization and polynomial budgets are sized for eps_measured <=
    # epsilon gamma / 3; angles that realize a target truncated at 1e-12
    # missed it here by up to 175x
    rep = verify_error_bounds(PrepConfig(AmplitudeOracle.indicator(n, 5, 8), epsilon, 0.1))
    aim = [c for c in rep.bound_checks if c.name == "eps_measured_le_eps_gamma_over_3"]
    assert aim == [("eps_measured_le_eps_gamma_over_3", rep.info["eps_measured"],
                    epsilon * rep.info["gamma"] / 3.0, True, "<=")]
    assert rep.all_passed, [c for c in rep.bound_checks if not c.passed]


def test_random_n7_tables_and_search_at_n3_run_at_arcsin_degree_5():
    # the benchmark's kinds of run at eps 0.05 and delta 0.1: the arcsin
    # target spends half a quantization step, and its final error stays
    # under 0.014 eps (measured: at most 0.0124 eps on these tables, 0.0129
    # eps on search)
    eps = 0.05
    tables = [np.random.default_rng(seed).uniform(0.0, 1.0, 2**7) for seed in range(30)]
    reports = [verify_error_bounds(PrepConfig(AmplitudeOracle(7, 8, values), eps, 0.1))
               for values in tables]
    reports += [grover_case(3, x0, 0.1, eps) for x0 in range(8)]
    for rep in reports:
        assert rep.degrees[0] == 5, rep.degrees
        assert rep.all_passed, [c for c in rep.bound_checks if not c.passed]
        assert rep.info["final_error"] <= 0.014 * eps, rep.info["final_error"] / eps


def test_a_failed_stage_is_not_kept_and_fails_again(monkeypatch):
    stages = []
    _counting(monkeypatch, pipeline, "_new_stage", stages)
    oracle = AmplitudeOracle.uniform(2, 8)
    verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.1, delta=0.1))
    assert oracle._stage is not None
    # the kept stage is dropped before a new one is computed, and the one
    # that raises is not kept in its place
    for _ in range(2):
        with pytest.raises(InfeasibleError, match="infeasible"):
            verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.9, delta=0.1))
        assert oracle._stage is None
    verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.1, delta=0.2))
    assert [eps for _, eps in stages] == [0.1, 0.9, 0.9, 0.1]


def test_a_new_epsilon_drops_the_kept_stage_before_computing_its_own():
    # a random n = 16 table at eps 1e-6 and 1e-5 has about one level per
    # index, so the stage its oracle keeps is about 16 B per index; a run at
    # a new epsilon drops it first, so it grows the traced memory by that
    # much less than the same run on an oracle that keeps no stage
    import tracemalloc

    n = 16
    values = np.random.default_rng(12).uniform(0.0, 1.0, 2**n)

    def run(oracle, eps):
        verify_error_bounds(PrepConfig(oracle=oracle, epsilon=eps, delta=0.1))

    run(AmplitudeOracle(n, 8, values), 1e-5)  # warms the memos
    fresh, kept = AmplitudeOracle(n, 8, values), AmplitudeOracle(n, 8, values)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(fresh, 1e-5)
        fresh_growth = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        run(kept, 1e-6)
        stage = tracemalloc.get_traced_memory()[0] - base
        base += stage
        tracemalloc.reset_peak()
        run(kept, 1e-5)
        kept_growth = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 16.1 B per index kept (two reals per level), and 72.8 and 56.8 B per
    # index grown
    assert stage / 2**n >= 14
    assert kept_growth <= fresh_growth - stage * 0.9


def test_a_stage_hit_allocates_nothing_per_level_but_the_memo_key():
    # the ascending table (x + 1/2) / 2^12 at epsilon 1e-6 has K = N = 4096
    # levels on the identity path, which the encoding memo keeps: a run at
    # the kept stage looks its encoding up by a copy of the sines, 8 B per
    # level, and amplifies at the stage's sigma alone
    import tracemalloc

    n = 12
    oracle = AmplitudeOracle(n, 8, (np.arange(2**n) + 0.5) / 2**n)
    for delta in (0.1, 0.15):
        verify_error_bounds(PrepConfig(oracle=oracle, epsilon=1e-6, delta=delta))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=1e-6, delta=0.2))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.info["levels"] == 2**n
    # 8.0 B per level; a hit that weighted the levels by their counts again
    # traced 16.3
    assert peak / 2**n <= 9


@pytest.mark.parametrize("oracle", [
    AmplitudeOracle(6, 8, np.random.default_rng(9).uniform(0.0, 1.0, 64)),
    AmplitudeOracle(3, 8, (np.arange(8) + 0.5) / 8),  # distinct levels, ascending: the identity path
    AmplitudeOracle.indicator(6, 61, 8),
], ids=["table", "sorted-table", "indicator"])
def test_final_state_is_the_per_class_expansion_of_the_realized_levels(oracle):
    # the state built when read is each class's realized level at every
    # index of the class, exactly as a per-class state expanded
    rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
    stage = oracle._stage
    classes = oracle.classes
    _, level_of = np.unique(_quantize(classes.values, stage.m), return_inverse=True)
    want = classes.expand(stage.realized_level[level_of])
    assert rep.final_state.amplitudes.tobytes() == want.astype(complex).tobytes()


def test_sweep_csv_is_the_dict_writer_csv():
    # ok rows, rows of an infeasible epsilon and rows of a bad dist, whose
    # status holds a comma and quotes, and a row that lacks columns
    import csv
    import io

    rows = sweep(SweepSpec.from_dict({"n": [2, 3], "dist": ["indicator:1", "gaussian:1"],
                                      "epsilon": [0.9, 0.05], "delta": [0.1]}))
    assert {row["status"][:12] for row in rows} == {"ok", "error: epsil", "error: bad d"}
    rows.append({"n": 4, "status": "ok"})  # a row of the caller's with columns missing
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=pipeline.SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in pipeline.SWEEP_COLUMNS})
    assert sweep_to_csv(rows) == buf.getvalue()


def test_encoding_memo_keeps_no_fine_grained_level_sets():
    # a random table at n = 14 and eps = 1e-3 runs at m = 16 with more levels
    # than the memo keeps: the encoding memo stores nothing for it, and once
    # its report is dropped what stays grows with the levels, not the entries
    import tracemalloc

    _clear_memos()
    values = np.random.default_rng(0).uniform(0.0, 1.0, 2**14)
    oracle = AmplitudeOracle(14, 8, values)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=1e-3, delta=0.1))
        levels = rep.info["levels"]
        assert levels > blockenc._MEMO_MAX_LEVELS
        assert blockenc._encoding.cache_info().currsize == 0
        del rep
        # what stays is the oracle's stage, O(levels): the encoding's sines,
        # the level counts and the realized levels, 24 B per level, and the
        # memos' few polynomials, 9 B per level here; 33.2 B per level traced
        assert tracemalloc.get_traced_memory()[0] - base <= 36 * levels
    finally:
        tracemalloc.stop()


def test_encoding_memo_serves_default_m_sweep_and_search_tables(monkeypatch):
    def hit(run):
        before = blockenc._encoding.cache_info().hits
        run()
        return blockenc._encoding.cache_info().hits > before

    def lookups():
        info = blockenc._encoding.cache_info()
        return info.hits + info.misses

    # search: two levels, whatever the marked item and delta
    for n in (3, 12):
        _clear_memos()
        assert not hit(lambda: grover_case(n, 1, 0.1, 0.05))
        assert hit(lambda: grover_case(n, 2**n - 1, 0.12, 0.05))
    # a default-m random table near the memo's level limit (m = 12 at eps
    # 0.01): a second oracle of the table hits, and an oracle run again at
    # another delta reuses the stage it keeps and looks nothing up
    values = np.random.default_rng(3).uniform(0.0, 1.0, 2**14)
    oracle = AmplitudeOracle(14, 8, values)
    _clear_memos()
    assert not hit(lambda: verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.01, delta=0.1)))
    assert hit(lambda: verify_error_bounds(
        PrepConfig(oracle=AmplitudeOracle(14, 8, values), epsilon=0.01, delta=0.2)))
    # the oracle run again at another delta reuses the stage it keeps and
    # reads the stage's encoding from the memo
    assert hit(lambda: verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.01, delta=0.2)))
    # sweep rows that differ only in delta share the table's stage, and each
    # row looks its encoding up once: the second row of a stage hits
    looked = []
    inner = pipeline.verify_error_bounds

    def recording(cfg):
        before, hits = lookups(), blockenc._encoding.cache_info().hits
        rep = inner(cfg)
        looked.append((lookups() - before, blockenc._encoding.cache_info().hits > hits))
        return rep

    monkeypatch.setattr(pipeline, "verify_error_bounds", recording)
    _clear_memos()
    rows = sweep(SweepSpec.from_dict({"n": [2, 8], "dist": ["indicator:1", "gaussian:2,1.5"],
                                      "epsilon": [0.05, 0.1], "delta": [0.1, 0.2]}))
    assert all(row["status"] == "ok" for row in rows)
    assert [n for n, _ in looked] == [1] * len(rows)
    assert all(hit for _, hit in looked[1::2])


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



def _grouping_cases():
    rng = np.random.default_rng(41)
    capped = rng.uniform(0.0, 1.0, 2**10)
    capped[::7] = 1.0  # capped into the top register content, with its neighbours
    capped[3::7] = 1.0 - 2.0**-10
    near = 0.6 + 1e-9 * rng.standard_normal(2**12)
    ordered = np.sort(rng.integers(0, 300, 2**10) / 300)  # sorted, with repeats
    return [
        ("random-m10", rng.uniform(0.0, 1.0, 2**10), 10, "bins"),
        ("random-m26", rng.uniform(0.0, 1.0, 2**10), 26, "sort"),
        ("random-m26-n16", rng.uniform(0.0, 1.0, 2**16), 26, "sort"),
        ("sorted", ordered, 12, "bins"),
        ("sorted-m20", ordered, 20, "sort"),
        ("ascending", (np.arange(2**8) + 0.5) / 2**8, 8, "identity"),
        ("near-constant", near, 8, "bins"),
        ("near-constant-m40", near, 40, "sort"),
        ("all-equal", np.full(2**9, 0.3), 9, "bins"),
        ("all-equal-m30", np.full(2**9, 0.3), 30, "sort"),
        ("capped", capped, 10, "bins"),
        ("capped-m14", capped, 14, "sort"),
        # 2^14 bins against N = 2^11 and 2^12 entries: the two sides of the switch
        ("switch-sort-side", rng.uniform(0.0, 1.0, 2**11), 14, "sort"),
        ("switch-bins-side", rng.uniform(0.0, 1.0, 2**12), 14, "bins"),
    ]


@pytest.mark.parametrize("values, m, side", [case[1:] for case in _grouping_cases()],
                         ids=[case[0] for case in _grouping_cases()])
def test_levels_equal_a_sort_of_the_quantized_values(monkeypatch, values, m, side):
    # the grouping by integer register content gives exactly what np.unique
    # of the recentred quantized values gives: the levels, each entry's
    # level and the count at each level, on either side of the switch
    # between one bin per register content and a sort
    ran = []

    def spy(name):
        inner = getattr(np, name)

        def call(*args, **kwargs):
            ran.append(name)
            return inner(*args, **kwargs)
        return call

    for name in ("bincount", "unique"):
        monkeypatch.setattr(np, name, spy(name))
    classes = AmplitudeOracle(int(np.log2(values.size)), 8, values).classes
    levels, level_of, counts = pipeline._levels(classes, m)
    monkeypatch.undo()
    want = np.unique(_quantize(values, m) + 2.0 ** -(m + 1), return_inverse=True, return_counts=True)
    assert ran == {"bins": ["bincount"], "sort": ["unique"], "identity": []}[side]
    # the counts come as integers on every path; the stage casts them once
    # for the sums they weight
    assert counts.dtype == np.int64
    assert levels.tobytes() == want[0].tobytes()
    assert np.arange(levels.size)[level_of].tolist() == want[1].tolist()
    assert counts.tolist() == want[2].tolist()


def test_final_state_read_builds_nothing_from_the_level_counts(monkeypatch):
    # on an ascending table the levels are the classes, and their counts are
    # the classes' own unit view: the final-state read, which takes only
    # each class's level, gets them uncast, and the stage casts them once
    values = (np.arange(2**10) + 0.5) / 2**10
    oracle = AmplitudeOracle(10, 8, values)
    rep = prepare_state(PrepConfig(oracle=oracle, epsilon=1e-6, delta=0.1))
    stage = oracle._stage
    assert stage.realized_level.size == values.size
    got = []
    inner = pipeline._levels

    def spy(classes, m):
        out = inner(classes, m)
        got.append((classes, out[2]))
        return out

    monkeypatch.setattr(pipeline, "_levels", spy)
    rep.final_state
    [(classes, counts)] = got
    assert counts is classes.counts and counts.dtype == np.int64


def test_bound_check_is_immutable_and_prints_its_fields():
    check = pipeline.BoundCheck.le("final_error_le_epsilon", 0.01, 0.05)
    with pytest.raises(AttributeError):
        check.passed = False
    assert str(check) == (
        "BoundCheck(name='final_error_le_epsilon', lhs=0.01, rhs=0.05, passed=True, relation='<=')")
    assert pipeline.BoundCheck.eq("calls", 4, 4) == ("calls", 4.0, 4.0, True, "==")
