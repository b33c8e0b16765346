"""The engine against the dense reference simulator.

The pipeline simulates its diagonal phase oracle with one 4x4 block per
distinct quantized value of the table, of which it needs only the flagged
entry of column 0, one real per value (``hamiltonian_from_unitary``), and
amplifies |0,0,+^n> in the two-dimensional subspace the rank-one
initial-state projector leaves invariant (``amplify_state``): one
application of C, then the phase ansatz at x = sigma, which multiplies the
flagged direction by one number, M_00(sigma). The engine's post-selected
state is therefore the realized state, the encoded diagonal normalized,
and its success |M_00|^2. The dense reference builds the same circuit as
full unitaries: ``lcu_real_part(sine_block_encoding(u), phases)``, then
``amplify`` and ``project_measure``. The engine's one state must agree to
1e-12 with both the dense post-selected state and the dense realized state
(the normalized diagonal of the dense C's block), so that the two being
one is checked, not assumed. Past the
dense reference's reach, and past 100 rounds where its success drifts,
the engine's success is held to 1e-12 of the same circuit applied round
by round to the (4, N) state in extended precision (``_extended_success``).
A per-index evaluation of the same formulas (``per_index_run``) checks, on
tables with repeated values, that running on the distinct quantized
values loses nothing.
"""
import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsprep import simulator
from qsprep.amplifier import (
    AmplificationPlan,
    amplify,
    amplify_state,
    build_projectors,
    plan_amplification,
)
from qsprep.blockenc import (
    LevelEncoding,
    _level_diagonal,
    _phases_at_cut,
    extract_block,
    hamiltonian_from_unitary,
    lcu_real_part,
    sine_block_encoding,
)
from qsprep.errors import DimensionError, InputError
from qsprep.oracle import AmplitudeOracle
from qsprep.phases import _top_row
from qsprep.pipeline import (
    BETA,
    DELTA_MARGIN,
    PrepConfig,
    PrepReport,
    _final_state,
    _report,
    _table_stage,
    _TableStage,
    prepare_state,
    verify_error_bounds,
)
from qsprep.simulator import (
    StateVector,
    UnitaryMatrix,
    project_measure,
    spectral_norm,
)

TOL = 1e-12


def hadamard_layer(n):
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    s = np.array([[1.0]])
    for _ in range(n):
        s = np.kron(s, had)
    return UnitaryMatrix(s.astype(complex))


@dataclasses.dataclass
class Run:
    """A run's report with its table stage, the encoding it amplified and its plan."""

    config: PrepConfig
    stage: _TableStage
    encoding: LevelEncoding
    plan: AmplificationPlan
    report: PrepReport

    @property
    def sigma(self):
        """The singular value the amplification read off the encoded diagonal."""
        return {c.name: c for c in self.report.bound_checks}["sigma_ge_band_edge"].rhs

    def final(self):
        """The final state at every index, as a report's ``final_state`` builds it."""
        return _final_state(self.config.oracle.classes, self.stage.m, self.stage.realized_level).amplitudes


def quantized(run):
    """The run's table quantized at the m it ran at."""
    table = run.config.oracle
    return AmplitudeOracle(table.n, run.stage.m, table.values).quantized


def oracle_diagonal(run):
    """The phase oracle's diagonal, as the pipeline compiles it."""
    c_q = quantized(run) + 2.0 ** -(run.stage.m + 1)
    return np.exp(1j * np.pi * BETA * c_q / 2.0)


def flagged_unit(encoding):
    """The flagged amplitude per unit amplitude, BETA G / 2 at the encoding's gain G."""
    return BETA * encoding.info["arcsin_gain"] / 2.0


def value_classes(run):
    """Each index's class (the rank of its quantized value) and the class sizes."""
    _, inverse, counts = np.unique(quantized(run), return_inverse=True, return_counts=True)
    return inverse, counts


def dense_run(run):
    """The same run with every simulated quantity taken from the dense reference.

    Its distances to the target are sums over the indices of the dense
    realized state. Also returns that state, the dense encoding and the
    dense post-selected state, its global phase removed against the
    realized state.
    """
    cfg = run.config
    n = cfg.oracle.n
    u = UnitaryMatrix(np.diag(oracle_diagonal(run)))
    be = lcu_real_part(sine_block_encoding(u), run.encoding.phases)
    block = extract_block(be)
    c_realized = np.real(np.diag(block)) / flagged_unit(run.encoding)
    realized = c_realized / np.linalg.norm(c_realized)

    s = hadamard_layer(n)
    psi0 = np.zeros(be.unitary.dim, dtype=complex)
    psi0[: 2**n] = s.entries[:, 0]
    u_amp = amplify(be.unitary, s, run.plan)
    flag, _ = build_projectors(n, s, ancillas=be.ancillas)
    post, success = project_measure(flag, StateVector(u_amp.entries @ psi0))
    data = post.amplitudes[: 2**n]
    data = data * np.exp(-1j * np.angle(np.vdot(realized, data)))

    d_a, d_s = len(run.encoding.phases), run.plan.rounds
    target = cfg.oracle.values / np.linalg.norm(cfg.oracle.values)
    stage = dataclasses.replace(
        run.stage,
        gamma_quant=float(np.mean((quantized(run) + 2.0 ** -(run.stage.m + 1)) ** 2)),
        gamma_realized=float(np.mean(c_realized**2)),
        eps_measured=spectral_norm(block / flagged_unit(run.encoding) - np.diag(cfg.oracle.values)),
        fidelity=abs(float(realized @ target)),
        final_error=float(np.linalg.norm(realized - target)),
    )
    report = _report(cfg, stage, run.encoding, run.plan, success, 4 * d_a * d_s, bounds=True)
    return dataclasses.replace(run, stage=stage, report=report), realized, be, data


def engine_run(values, eps=0.05, delta=0.1):
    n = int(np.log2(len(values)))
    cfg = PrepConfig(oracle=AmplitudeOracle(n, 8, values), epsilon=eps, delta=delta)
    report = verify_error_bounds(cfg)
    # the stage the run kept, and the encoding it amplified (a memo hit)
    stage, encoding = _table_stage(cfg.oracle, eps)
    plan = plan_amplification(report.info["sigma"], delta)
    return Run(cfg, stage, encoding, plan, report)


def assert_engine_matches_dense(values, eps=0.05, delta=0.1, success_tol=TOL):
    return assert_run_matches_dense(engine_run(values, eps, delta), success_tol)


def assert_run_matches_dense(run, success_tol=TOL):
    ref, realized, be, post_selected = dense_run(run)

    # the flagged entry of the block of index x is the dense C's entry (x, x)
    inverse, _ = value_classes(run)
    dense = np.diag(be.unitary.entries)[: run.config.oracle.values.size]
    assert np.abs(run.encoding.diagonal[inverse] - dense).max() <= TOL

    final = run.final()
    assert np.abs(final - post_selected).max() <= TOL
    assert np.abs(final - realized).max() <= TOL
    mine, theirs = run.report, ref.report
    assert abs(mine.success_probability - theirs.success_probability) <= success_tol
    assert abs(run.stage.gamma_quant - ref.stage.gamma_quant) <= TOL
    assert abs(run.stage.eps_measured - ref.stage.eps_measured) <= TOL
    assert mine.oracle_calls == theirs.oracle_calls
    assert mine.degrees == theirs.degrees == (len(run.encoding.phases), run.plan.rounds)
    assert [(c.name, c.passed) for c in mine.bound_checks] == [
        (c.name, c.passed) for c in theirs.bound_checks
    ]
    return run


def fixed_tables():
    cases = []
    for n in range(2, 7):
        size = 2**n
        xs = np.arange(size, dtype=float)
        cases.append(pytest.param(np.ones(size), id=f"uniform-n{n}"))
        cases.append(
            pytest.param(np.exp(-((xs - size / 2) ** 2) / (2 * size**2)), id=f"near-flat-n{n}")
        )
        cases.append(pytest.param(np.random.default_rng(n).uniform(0, 1, size), id=f"random-n{n}"))
        cases.append(pytest.param(np.eye(size)[size - 3], id=f"indicator-n{n}"))
    return cases


@pytest.mark.parametrize("values", fixed_tables())
def test_engine_matches_dense_reference(values):
    assert_engine_matches_dense(values)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.floats(0.1, 1.0), min_size=2**n, max_size=2**n)
    ),
    st.sampled_from([0.05, 0.1]),
)
@example([0.125, 0.125], 0.05)  # d_s = 49
@example([0.125, 0.1640625], 0.05)  # d_s = 43
@example([0.05, 0.05], 0.05)  # 123 rounds: the branch past 100 rounds
@settings(max_examples=20)
def test_engine_matches_dense_reference_property(values, eps):
    run = engine_run(np.array(values), eps=eps)
    if run.plan.rounds <= 100:
        assert_run_matches_dense(run)
    else:
        # as at the n = 6 indicator below: the dense reference's success
        # drifts by about 5e-15 per round (at most 2.9e-13 up to 100 rounds,
        # 1.2e-12 to 1.3e-12 after 177 and 207), so past 100 rounds the
        # engine is held to 1e-12 of the extended-precision evaluation
        assert_run_matches_dense(run, success_tol=5e-12)
        assert abs(run.report.success_probability - _extended_success(run)) <= TOL


def per_index_run(run):
    """The amplified state and success evaluated at every index on its own.

    The flagged entry of each index's block is read through the engine's
    own ``_level_diagonal`` at all N diagonal entries, from the series the
    angle memo keeps, and C|Psi> is normalized over all N indices, as if no
    two indices shared a value; so this checks the grouping into levels,
    and ``test_level_diagonal_matches_the_ansatz`` checks the entries.
    """
    diagonal = oracle_diagonal(run)
    _, series, layers, *_ = _phases_at_cut(*run.encoding.info["arcsin_cut"], DELTA_MARGIN)
    entry = _level_diagonal(diagonal.imag, series)
    flagged = np.linalg.norm(entry)
    sigma = float(flagged / np.sqrt(diagonal.size))
    a, _, rounds = _top_row(run.plan.phases.phases, np.array([sigma]))
    flag_row = entry * (a[0] / flagged)
    success = float(np.linalg.norm(flag_row) ** 2)
    c_realized = entry / flagged_unit(run.encoding)
    realized = c_realized / np.linalg.norm(c_realized)
    data = flag_row / np.sqrt(success)
    data = data * np.exp(-1j * np.angle(np.vdot(realized, data)))
    eps = float(np.abs(c_realized - run.config.oracle.values).max())
    return data, success, realized, eps, rounds * layers * 4


@st.composite
def tables_with_repeats(draw):
    """A table of 2^n entries, n <= 8, over at most six distinct values."""
    n = draw(st.integers(1, 8))
    values = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(len(values), size=2**n)
    return np.array(values)[picks]


@given(tables_with_repeats(), st.sampled_from([0.05, 0.1]))
@settings(max_examples=30, deadline=None)
def test_class_engine_matches_per_index_evaluation(values, eps):
    run = engine_run(values, eps=eps)
    _, counts = value_classes(run)
    assert run.stage.realized_level.size == counts.size <= 6
    data, success, realized, eps_measured, calls = per_index_run(run)
    final = run.final()
    assert np.abs(final - data).max() <= TOL
    assert np.abs(final - realized).max() <= TOL
    assert abs(run.report.success_probability - success) <= TOL
    assert run.stage.eps_measured == eps_measured
    assert run.report.oracle_calls == calls


def _extended_success(run):
    """The engine's success probability recomputed in extended precision."""
    m = run.stage.m
    pi = np.longdouble("3.141592653589793238462643383279503")
    c_q = quantized(run).astype(np.longdouble) + np.longdouble(2.0) ** -(m + 1)
    diagonal = np.exp(1j * pi * np.longdouble(BETA) * c_q / 2)
    size = diagonal.size
    w = np.empty((size, 2, 2), dtype=np.clongdouble)
    w[:, 0, 0], w[:, 0, 1] = diagonal.imag, 1j * diagonal.real
    w[:, 1, 0], w[:, 1, 1] = -1j * diagonal.real, -diagonal.imag
    branches = []
    for sign in (1, -1):
        acc = np.broadcast_to(np.eye(2, dtype=np.clongdouble), (size, 2, 2))
        for a in run.encoding.phases.phases:
            a = sign * np.longdouble(a)
            acc = (acc * np.array([np.exp(1j * a), np.exp(-1j * a)])) @ w
        branches.append(acc)
    blocks = np.empty((size, 4, 4), dtype=np.clongdouble)
    blocks[:, :2, :2] = blocks[:, 2:, 2:] = (branches[0] + branches[1]) / 2
    blocks[:, :2, 2:] = blocks[:, 2:, :2] = (branches[0] - branches[1]) / 2
    plus = np.full(size, 1 / np.sqrt(np.longdouble(size)))
    state = np.zeros((4, size), dtype=np.clongdouble)
    state[0] = plus
    angles = run.plan.phases.phases
    for j in range(len(angles) - 1, -1, -1):
        op = blocks if j % 2 == 0 else blocks.conj().transpose(0, 2, 1)
        state = np.einsum("xab,bx->ax", op, state)
        up, down = np.exp(1j * np.longdouble(angles[j])), np.exp(-1j * np.longdouble(angles[j]))
        if j % 2 == 0:
            state[0] *= up
            state[1:] *= down
        else:
            overlap = (plus * state[0]).sum()
            state *= down
            state[0] += (up - down) * overlap * plus
    return float(np.sum(np.abs(state[0]) ** 2))


@pytest.mark.parametrize(
    "values",
    [np.ones(8), np.random.default_rng(3).uniform(0, 1, 8), np.eye(16)[13]],
    ids=["uniform-n3", "random-n3", "indicator-n4"],
)
def test_whole_amplified_state_matches_dense_reference(values):
    # the engine computes only the number M_00(sigma) that the amplification
    # puts on the flagged part of C|Psi>; times that part, the diagonal
    # over its norm, it gives the dense state's first 2^n entries, global
    # phase included; the unflagged rest is never formed
    run = engine_run(values)
    n = run.config.oracle.n
    u = UnitaryMatrix(np.diag(oracle_diagonal(run)))
    be = lcu_real_part(sine_block_encoding(u), run.encoding.phases)
    s = hadamard_layer(n)
    psi0 = np.zeros(be.unitary.dim, dtype=complex)
    psi0[: 2**n] = s.entries[:, 0]
    inverse, counts = value_classes(run)
    diagonal = run.encoding.diagonal
    # the stage's sigma is the norm of the encoded diagonal over sqrt(N), bit for bit
    norm = np.sqrt(diagonal**2 @ counts)
    assert run.stage.sigma == norm / np.sqrt(counts.sum())
    amplitude, applications = amplify_state(run.stage.sigma, run.plan)
    assert applications == run.plan.rounds
    flagged = diagonal[inverse] * amplitude / norm
    dense = amplify(be.unitary, s, run.plan).entries @ psi0
    assert np.abs(flagged - dense[: 2**n]).max() <= TOL


def test_engine_beats_dense_reference_at_high_degree():
    # the n = 6 indicator at delta = 1e-7 amplifies in 163 rounds; there the
    # dense reference's 163 products of 256 x 256 unitaries drift by 7.1e-13
    # in the success probability, while the engine stays within 1e-13 of an
    # extended-precision evaluation of the same circuit
    values = np.eye(64)[61]
    run = assert_engine_matches_dense(values, delta=1e-7, success_tol=5e-12)
    assert run.plan.rounds == 163
    assert abs(run.report.success_probability - _extended_success(run)) <= TOL


@pytest.mark.parametrize("n", range(7, 12))
def test_engine_matches_extended_precision_on_indicators(n):
    # beyond the dense reference's reach (2^(n+2)-sized unitaries, 275 rounds
    # at n = 11), the engine's success is held to the same circuit evaluated
    # round by round in extended precision
    run = engine_run(np.eye(2**n)[2**n - 3])
    assert abs(run.report.success_probability - _extended_success(run)) <= TOL


def test_counted_oracle_calls_are_checked():
    oracle = AmplitudeOracle(3, 8, np.random.default_rng(5).uniform(0, 1, 8))
    rep = prepare_state(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
    d_a, d_s = rep.degrees
    check = {c.name: c for c in rep.bound_checks}["counted_oracle_calls_eq_4_da_ds"]
    assert check.passed and check.relation == "=="
    assert check.lhs == rep.oracle_calls == 4 * d_a * d_s


def test_sixteen_qubits_verify_quickly():
    values = np.random.default_rng(0).uniform(0, 1, 2**16)
    start = time.perf_counter()
    rep = verify_error_bounds(PrepConfig(oracle=AmplitudeOracle(16, 8, values), epsilon=0.05, delta=0.1))
    elapsed = time.perf_counter() - start
    assert rep.all_passed, [c.name for c in rep.bound_checks if not c.passed]
    assert elapsed < 5.0


def test_execute_allocates_no_quadratic_array():
    n = 11
    oracle = AmplitudeOracle(n, 8, np.random.default_rng(1).uniform(0, 1, 2**n))
    cfg = PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1)
    tracemalloc.start()
    try:
        verify_error_bounds(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4**n / 8  # an N x N complex array alone is 16 N^2 bytes


def test_run_memory_per_index():
    # the engine keeps one real per level; what grows with N is the grouping
    # of the table's entries by register content, the expanded generator, the
    # final (which is the realized) and target states, both real, and the
    # sums over them: 24 B per index traced, since each entry's level is
    # dropped before the target exists and the table's unit counts are not
    # cast to an N-sized array (each cost 8 B; a sort of the quantized
    # values took 49 B in all, the (N, 4, 4) blocks alone 256 B, a sort of
    # the raw values with its index map 88 B, and a complex final state
    # beside the realized one 64 B)
    n = 18

    def config(seed):
        oracle = AmplitudeOracle(n, 8, np.random.default_rng(seed).uniform(0, 1, 2**n))
        return PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1)

    verify_error_bounds(config(1))  # warms the memos for the same 1024 levels
    cfg = config(2)
    tracemalloc.start()
    try:
        rep = verify_error_bounds(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.info["levels"] == 1024
    assert peak / 2**n <= 25


def test_read_final_state_holds_one_state_per_index():
    # unread, a report holds O(levels): the oracle's stage keeps two reals
    # per level (the encoding's sines and the realized levels), and the
    # final state is built from it when read; once
    # read, it holds the 16-byte complex final state per index; once
    # dropped, the oracle still keeps its stage, O(levels) again; the unit
    # class counts of a table are one scalar, not an N-sized array
    n = 18
    values = np.random.default_rng(2).uniform(0, 1, 2**n)
    # another oracle of the table fills the encoding memo, so what is traced
    # below is the report and the stage alone
    verify_error_bounds(PrepConfig(oracle=AmplitudeOracle(n, 8, values), epsilon=0.05, delta=0.1))
    oracle = AmplitudeOracle(n, 8, values)
    tracemalloc.start()
    try:
        rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
        unread, _ = tracemalloc.get_traced_memory()
        state = rep.final_state
        held, _ = tracemalloc.get_traced_memory()
        assert state.amplitudes.size == 2**n
        del rep, state
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 26.5 B and 25.4 B per level traced, 0.10 B per index
    levels = 1024
    assert unread / levels <= 30
    assert held / 2**n <= 20
    assert kept / levels <= 30
    assert oracle._stage is not None


@pytest.mark.parametrize(
    "oracle",
    [AmplitudeOracle(6, 8, np.random.default_rng(6).uniform(0, 1, 64)), AmplitudeOracle.indicator(6, 61, 8)],
    ids=["random-n6", "indicator-n6"],
)
def test_final_state_is_the_realized_state(oracle):
    # the amplification multiplies the flagged direction by one number, so
    # post-selection leaves the realized state itself: real, and at the
    # same distance from the target
    rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
    assert not rep.final_state.amplitudes.imag.any()
    checks = {c.name: c for c in rep.bound_checks}
    assert checks["state_dist_le_3eps_over_gamma"].lhs == checks["final_dist_le_3eps_over_gamma"].lhs


def test_engine_size_is_checked_before_allocation(monkeypatch):
    monkeypatch.setattr("qsprep.oracle.MAX_TABLE_QUBITS", 3)
    with pytest.raises(DimensionError):
        AmplitudeOracle(4, 8, np.ones(16))
    with pytest.raises(DimensionError):
        hamiltonian_from_unitary(np.zeros(16), 1e-3, 0.25)


def test_lcu_checks_its_size_before_allocation(monkeypatch):
    u = UnitaryMatrix(np.diag(np.exp(1j * np.pi * np.array([0.1, 0.2]))))
    be = sine_block_encoding(u)
    monkeypatch.setattr(simulator, "MAX_QUBITS", 2)
    phases = hamiltonian_from_unitary(np.diag(u.entries).imag, 1e-3, 0.25).phases
    with pytest.raises(DimensionError):
        lcu_real_part(be, phases)


@pytest.mark.parametrize(
    "sines",
    [
        np.zeros((2, 2)),
        np.array([1.5, 0.0]),  # no unit-modulus entry has a sine past 1
        np.array([np.nan, 0.0]),
        np.array([complex(0.0, np.nan), 1.0]),  # complex: the diagonal, not its sines
    ],
    ids=["matrix", "not-unit", "nan-real", "nan-imag"],
)
def test_hamiltonian_rejects_bad_diagonal(sines):
    error = DimensionError if sines.ndim != 1 else InputError
    with pytest.raises(error):
        hamiltonian_from_unitary(sines, 1e-3, 0.25)


def test_table_length_must_be_a_power_of_two():
    # the encoding takes any number of distinct levels; the table they come
    # from has 2^n entries
    hamiltonian_from_unitary(np.zeros(3), 1e-3, 0.25)
    with pytest.raises(DimensionError):
        engine_run(np.ones(3))
