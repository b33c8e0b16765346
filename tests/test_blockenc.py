import tracemalloc
from dataclasses import FrozenInstanceError

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from qsprep import blockenc
from qsprep.blockenc import (
    ARCSIN_GAIN,
    BlockEncoding,
    extract_block,
    hamiltonian_from_unitary,
    lcu_real_part,
    qsvt_circuit,
    reflection_encoding,
    sine_block_encoding,
)
from qsprep.errors import DimensionError, InfeasibleError, InputError
from qsprep.phases import PhaseSequence, find_phases, polynomial_from_phases, reconstruct
from qsprep.pipeline import DELTA_MARGIN
from qsprep.polyapprox import (
    ARCSIN_ROUNDING,
    REAL_TARGET_SUP,
    Polynomial,
    _arcsin_cut,
    arcsin_target,
    arcsin_taylor,
    complete_to_complex,
    evaluate,
)
from qsprep.simulator import Projector, UnitaryMatrix, op_dist


def diag_unitary(hvals):
    hvals = np.asarray(hvals, dtype=float)
    return UnitaryMatrix(np.diag(np.exp(1j * np.pi * hvals)))


def sines_of(u):
    """The sines of a diagonal unitary's entries, the levels the encoding takes."""
    return np.diag(u.entries).imag


def generator_block(be):
    """The engine's encoded generator as a matrix: diagonal by construction."""
    return np.diag(be.diagonal)


def restricted_phases(rng, d):
    return PhaseSequence(rng.uniform(0.3 * np.pi, 0.7 * np.pi, d) * rng.choice([-1.0, 1.0], d))


# ---------------------------------------------------------------------------
# block extraction
# ---------------------------------------------------------------------------

def test_extract_block_identity():
    proj = Projector.ancilla_zero(1, 1)
    be = BlockEncoding(UnitaryMatrix(np.eye(4)), 1, proj, proj)
    np.testing.assert_allclose(extract_block(be), np.eye(2), atol=0)


def test_extract_block_ancilla_flip_gives_zero():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = np.kron(x, np.eye(2))
    proj = Projector.ancilla_zero(1, 1)
    be = BlockEncoding(UnitaryMatrix(u), 1, proj, proj)
    np.testing.assert_allclose(extract_block(be), np.zeros((2, 2)), atol=0)


def test_extracted_block_norm_bound():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        q, _ = np.linalg.qr(m)
        proj = Projector.ancilla_zero(1, 2)
        be = BlockEncoding(UnitaryMatrix(q), 1, proj, proj)
        from qsprep.simulator import spectral_norm

        assert spectral_norm(extract_block(be)) <= 1.0 + be.certified_error + 1e-12


# ---------------------------------------------------------------------------
# sine encoding
# ---------------------------------------------------------------------------

def test_sine_encoding_of_identity_is_zero_block():
    be = sine_block_encoding(diag_unitary([0.0, 0.0]))
    np.testing.assert_allclose(extract_block(be), np.zeros((2, 2)), atol=1e-15)


def test_sine_encoding_ancilla_amplitudes():
    theta = 0.37
    be = sine_block_encoding(diag_unitary([theta, theta]))
    col = be.unitary.entries[:, 0]
    assert abs(col[0] - np.sin(np.pi * theta)) < 1e-14
    assert abs(col[2] - (-1j * np.cos(np.pi * theta))) < 1e-14


def test_sine_encoding_quarter_half():
    be = sine_block_encoding(diag_unitary([0.25, 0.5]))
    np.testing.assert_allclose(
        extract_block(be), np.diag([np.sin(np.pi / 4), 1.0]), atol=1e-14
    )


def test_sine_encoding_matches_per_eigenspace_closed_form():
    theta = -0.412
    be = sine_block_encoding(diag_unitary([theta, theta]))
    s, c = np.sin(np.pi * theta), np.cos(np.pi * theta)
    closed = np.array([[s, 1j * c], [-1j * c, -s]])
    got = be.unitary.entries[np.ix_([0, 2], [0, 2])]
    np.testing.assert_allclose(got, closed, atol=1e-14)


def test_sine_encoding_exactness_random_diagonals():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        h = rng.uniform(-0.95, 0.95, 2**n)
        be = sine_block_encoding(diag_unitary(h))
        assert op_dist(extract_block(be), np.diag(np.sin(np.pi * h))) <= 1e-12
        assert be.unitary.unitarity_defect() < 1e-10


# ---------------------------------------------------------------------------
# singular value transforms
# ---------------------------------------------------------------------------

def test_qsvt_identity_polynomial():
    be = sine_block_encoding(diag_unitary([0.3, -0.1]))
    out = qsvt_circuit(be, PhaseSequence([0.0]), "odd")
    assert op_dist(extract_block(out), extract_block(be)) <= 1e-12


def test_qsvt_negated_t2_on_sine_encoding():
    h = np.array([0.3, 0.3])
    be = sine_block_encoding(diag_unitary(h))
    out = qsvt_circuit(be, PhaseSequence([np.pi / 2, np.pi / 2]), "even")
    expected = -(2 * np.sin(0.3 * np.pi) ** 2 - 1)
    np.testing.assert_allclose(
        np.diag(extract_block(out)), expected * np.ones(2), atol=1e-12
    )


def test_qsvt_eigenvalue_transform_both_parities():
    rng = np.random.default_rng(2)
    for parity_d in (4, 5, 9, 12):
        n = int(rng.integers(1, 4))
        evals = rng.uniform(-0.95, 0.95, 2**n)
        be = reflection_encoding(np.diag(evals))
        phi = restricted_phases(rng, parity_d)
        poly = polynomial_from_phases(phi)
        parity = "even" if parity_d % 2 == 0 else "odd"
        out = qsvt_circuit(be, phi, parity)
        block = extract_block(out)
        np.testing.assert_allclose(
            np.diag(block), evaluate(poly, evals), atol=1e-10
        )
        off = block - np.diag(np.diag(block))
        assert np.abs(off).max() < 1e-10
        assert out.unitary.unitarity_defect() < 1e-9


def test_qsvt_parity_mismatch_rejected():
    be = sine_block_encoding(diag_unitary([0.2, 0.2]))
    with pytest.raises(DimensionError):
        qsvt_circuit(be, PhaseSequence([0.1, 0.2]), "odd")


def test_qsvt_robustness_bound():
    rng = np.random.default_rng(3)
    for eps in (1e-6, 1e-4):
        for _ in range(5):
            n = int(rng.integers(1, 3))
            dim = 2**n
            evals = rng.uniform(-0.9, 0.9, dim)
            be = reflection_encoding(np.diag(evals))
            k = rng.standard_normal((2 * dim, 2 * dim))
            k = k + k.T
            k = k / np.abs(np.linalg.eigvalsh(k)).max()
            u_pert = be.unitary.entries @ scipy.linalg.expm(1j * eps * k)
            noisy = BlockEncoding(
                UnitaryMatrix(u_pert),
                be.ancillas,
                be.proj_left,
                be.proj_right,
                certified_error=eps,
            )
            d = 7
            phi = restricted_phases(rng, d)
            poly = polynomial_from_phases(phi)
            out = qsvt_circuit(noisy, phi, "odd")
            exact = np.diag(evaluate(poly, evals))
            assert out.certified_error == pytest.approx(4 * d * np.sqrt(eps))
            assert op_dist(extract_block(out), exact) <= 4 * d * np.sqrt(eps)


# ---------------------------------------------------------------------------
# real-part combination
# ---------------------------------------------------------------------------

def test_lcu_matches_qsvt_for_real_polynomial():
    be = sine_block_encoding(diag_unitary([0.2, -0.35]))
    phi = PhaseSequence([np.pi / 2, np.pi / 2])  # realizes 1 - 2x^2, real
    direct = qsvt_circuit(be, phi, "even")
    combined = lcu_real_part(be, phi)
    assert combined.ancillas == be.ancillas + 1
    assert op_dist(extract_block(combined), extract_block(direct)) <= 1e-12


def test_lcu_kills_imaginary_polynomial():
    be = sine_block_encoding(diag_unitary([0.3, -0.1]))
    phi = find_phases(Polynomial([0.0, 1j], parity="odd"))
    out = lcu_real_part(be, phi)
    assert np.abs(extract_block(out)).max() <= 1e-12


def test_lcu_real_part_of_completion():
    rng = np.random.default_rng(4)
    h = rng.uniform(-0.2, 0.45, 4)
    be = sine_block_encoding(diag_unitary(h))
    pr = arcsin_taylor(1e-6, 0.29)
    comp = complete_to_complex(pr)
    phi = find_phases(comp)
    out = lcu_real_part(be, phi)
    got = np.diag(extract_block(out))
    expected = evaluate(pr, np.sin(np.pi * h)).real
    np.testing.assert_allclose(got, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# Hamiltonian extraction
# ---------------------------------------------------------------------------

def test_hamiltonian_from_zero_unitary():
    be = hamiltonian_from_unitary(sines_of(diag_unitary([0.0, 0.0])), 1e-3, 0.25)
    assert np.abs(generator_block(be)).max() <= 1e-10


def test_hamiltonian_extraction_matches_matrix_log():
    u = diag_unitary([0.25, -0.1])
    be = hamiltonian_from_unitary(sines_of(u), 1e-4, 0.2)
    brute = scipy.linalg.logm(u.entries) / (1j * np.pi)
    assert op_dist(generator_block(be), ARCSIN_GAIN * brute) <= ARCSIN_GAIN * 1e-4
    assert be.info["cu_calls"] == be.info["arcsin_degree"]


def test_hamiltonian_extraction_on_levels_with_a_negative_cosine():
    # |h| > 1/2 puts cos(pi h) below zero, where the sine encoding's
    # off-diagonal entries change sign; the generator is then the principal
    # value arcsin(sin(pi h)) / pi, not h
    h = np.array([0.7, -0.85, 0.95, 0.1])
    u = diag_unitary(h)
    enc = hamiltonian_from_unitary(sines_of(u), 1e-4, 0.15)
    assert enc.diagonal.dtype == np.float64 and enc.diagonal.shape == h.shape
    dense = np.diag(extract_block(lcu_real_part(sine_block_encoding(u), enc.phases)))
    assert np.abs(enc.diagonal - dense).max() <= 1e-12
    scaled = ARCSIN_GAIN * np.arcsin(np.sin(np.pi * h)) / np.pi
    assert np.abs(enc.diagonal - scaled).max() <= ARCSIN_GAIN * 1e-4


def test_hamiltonian_extraction_error_tracks_polynomial_error():
    hvals = [0.3, 0.05, -0.22, 0.35]
    u = diag_unitary(hvals)
    for eps in (1e-3, 1e-5):
        be = hamiltonian_from_unitary(sines_of(u), eps, 0.1)
        assert op_dist(generator_block(be), ARCSIN_GAIN * np.diag(hvals)) <= ARCSIN_GAIN * eps


@pytest.mark.parametrize("delta, exponents", [(DELTA_MARGIN, (8, 14, 20, 26, 32, 38, 44, 48, 50, 51)),
                                               (0.1, (8, 14, 20, 26, 32, 38, 44, 48, 50, 51)),
                                               (0.5, (8, 14, 20, 26, 32, 38, 44, 48, 50, 51)),
                                               (0.01, (51,))])
def test_encoded_generator_is_within_epsilon_down_to_the_rounding_floor(delta, exponents):
    # the realized encoding, double-precision series and sum included,
    # against a 40-digit G arcsin / pi, G the cut's gain (ARCSIN_GAIN, or
    # less where the target's l1 norm is above REAL_TARGET_SUP / ARCSIN_GAIN),
    # at 2d + 1 sines up to 1 - delta: it misses by at most G epsilon at
    # errors 2^-k from 2^-8 down to 2^-51, and the scaled double coefficients
    # the phase iteration is given, summed in 40 digits, by G
    # ARCSIN_ROUNDING; a smaller epsilon is refused. At delta 0.01 (d = 201)
    # a target resampled in double missed by 1.44 epsilon
    with mp.workdps(40):
        for k in exponents:
            epsilon = 2.0**-k
            sines = (1 - delta) * np.linspace(0.0, 1.0, 2 * (1 + _arcsin_cut(epsilon, delta)[1]))
            encoding = hamiltonian_from_unitary(sines, epsilon, delta)
            gain = encoding.info["arcsin_gain"]
            target = arcsin_target(epsilon, delta).coefficients.real
            assert gain == min(ARCSIN_GAIN, REAL_TARGET_SUP / np.abs(target).sum()) >= 1.0, k
            target = gain * target
            for y, h in zip(sines.tolist(), encoding.diagonal.tolist()):
                exact = gain * mp.asin(y) / mp.pi
                assert abs(h - exact) <= gain * epsilon, (k, y, float(abs(h - exact)) / epsilon)
                t0, t1, p = mp.mpf(1), mp.mpf(y), mp.mpf(0)
                for ck in target.tolist():
                    p, t0, t1 = p + ck * t0, t1, 2 * y * t1 - t0
                assert abs(h - p) <= gain * ARCSIN_ROUNDING, (k, y, float(abs(h - p)))
    with pytest.raises(InfeasibleError, match="under 2\\^-51"):
        hamiltonian_from_unitary(np.array([0.1]), 2.0**-52, delta)


def test_hamiltonian_call_count_grows_logarithmically():
    u = sines_of(diag_unitary([0.25, -0.1]))
    epss = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    degs = [hamiltonian_from_unitary(u, e, 0.25).info["arcsin_degree"] for e in epss]
    logs = np.log(1.0 / np.array(epss))
    assert degs == sorted(degs)
    slope, offset = np.polyfit(logs, degs, 1)
    fitted = slope * logs + offset
    assert np.abs(fitted - degs).max() <= 0.15 * max(degs) + 2.0


def test_hamiltonian_rejects_amplitude_near_one():
    with pytest.raises(InfeasibleError) as exc:
        hamiltonian_from_unitary(sines_of(diag_unitary([0.5, 0.0])), 1e-3, 0.2)
    assert "rescale" in str(exc.value)


def _levels_within_a_quarter(count, seed):
    """The sines of oracle entries e^{i pi h}, |h| <= 1/4: they fill |x| <= sin(pi/4)."""
    return np.sin(np.pi * np.random.default_rng(seed).uniform(-0.25, 0.25, count))


def _pipeline_arcsin_sets():
    """The distinct angle sets of the pipeline's arcsin transform up to d_a = 31, with their series."""
    found = {}
    for eps in 10.0 ** -np.arange(1.0, 15.0, 0.25):
        phi, series, layers, *_ = blockenc._phases_at_cut(*_arcsin_cut(eps, DELTA_MARGIN), DELTA_MARGIN)
        assert layers == len(phi)
        if 3 <= len(phi) <= 47:
            found.setdefault(len(phi), (phi, series))
    return [found[d] for d in sorted(found)]


def test_level_diagonal_matches_the_ansatz():
    # the series of Re a, the iteration's for the arcsin angles and the
    # realized polynomial's for random angles, summed at random levels
    # inside the arcsin interval, against the ansatz recurrence it replaces
    levels = _levels_within_a_quarter(2000, 7)
    arcsin_sets = _pipeline_arcsin_sets()
    assert {len(phi) for phi, _ in arcsin_sets} >= {3, 31}
    rng = np.random.default_rng(8)
    random_sets = []
    for d in range(1, 102, 4):
        phi = PhaseSequence(rng.uniform(-np.pi, np.pi, d))
        random_sets.append((phi, polynomial_from_phases(phi).coefficients.real))
    for sets, tol in ((arcsin_sets, 4e-15), (random_sets, 2e-14)):
        for phi, series in sets:
            diagonal = blockenc._level_diagonal(levels, series)
            gap = np.abs(diagonal - reconstruct(phi, levels).real).max()
            assert gap <= tol, (len(phi), gap)


def test_encoding_memory_per_level():
    # a never-memoized encoding with its angles warm makes no key and holds
    # O(1) arrays of K reals while it sums the series: 32 B per level traced
    # (a copy of the levels as the memo key took 16 B more, complex levels
    # 8 B more again, and the per-level ansatz recurrence 104.5 B in all)
    count = 2**18
    warm = hamiltonian_from_unitary(_levels_within_a_quarter(count, 1), 1e-7, 0.29)
    assert len(warm.phases) == 13
    levels = _levels_within_a_quarter(count, 2)
    tracemalloc.start()
    try:
        hamiltonian_from_unitary(levels, 1e-7, 0.29)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / count <= 33


def _encode_cold_then_warm(levels, epsilon, delta):
    blockenc._encoding.cache_clear()
    blockenc._phases_at_cut.cache_clear()
    cold = hamiltonian_from_unitary(levels, epsilon, delta)
    blockenc._encoding.cache_clear()  # a second cold build, from the same angles
    again = hamiltonian_from_unitary(levels, epsilon, delta)
    warm = hamiltonian_from_unitary(levels, epsilon, delta)
    return cold, again, warm


def test_encoding_memo_warm_equals_cold():
    levels = np.sin(np.pi * np.array([0.02, 0.11, 0.2]))
    cold, again, warm = _encode_cold_then_warm(levels, 1e-4, 0.25)
    assert warm is again
    assert warm.diagonal.tobytes() == cold.diagonal.tobytes()
    assert warm.phases.phases.tobytes() == cold.phases.phases.tobytes()
    assert dict(warm.info) == dict(cold.info)
    # the key is the exact levels, epsilon and delta: a change in any misses
    for args in ((levels * (1 + 1e-15), 1e-4, 0.25), (levels, 2e-4, 0.25), (levels, 1e-4, 0.3)):
        assert hamiltonian_from_unitary(*args) is not warm


def test_encoding_memo_results_are_read_only():
    encoding = hamiltonian_from_unitary(np.sin(np.pi * np.array([0.0, 0.1])), 1e-3, 0.25)
    with pytest.raises(ValueError):
        encoding.diagonal[0] = 0.0
    with pytest.raises(TypeError):
        encoding.info["cu_calls"] = 0
    with pytest.raises(FrozenInstanceError):
        encoding.diagonal = None


def test_encoding_memo_hit_builds_no_arcsin_target(monkeypatch):
    # a tracer that rebinds blockenc.real_target_phases sees every arcsin
    # solve, at the degree of the angles it returns: none on a memo hit, and
    # none on a miss whose target's cut (Taylor degree and kept length) is
    # known; a new cut solves once
    calls = []
    inner = blockenc.real_target_phases

    def counting(c):
        calls.append(c.size - 1)
        return inner(c)

    monkeypatch.setattr(blockenc, "real_target_phases", counting)
    blockenc._encoding.cache_clear()
    blockenc._phases_at_cut.cache_clear()
    levels = np.sin(np.pi * np.array([0.05, 0.15]))
    first = hamiltonian_from_unitary(levels, 1e-3, 0.25)
    assert calls == [len(first.phases)]
    assert hamiltonian_from_unitary(levels.copy(), 1e-3, 0.25) is first
    assert len(calls) == 1
    # new levels and a new epsilon, of the same cut
    other = hamiltonian_from_unitary(levels[::-1], 1.01e-3, 0.25)
    assert blockenc._encoding.cache_info().misses == 2
    assert other.phases is first.phases and len(calls) == 1
    hamiltonian_from_unitary(levels, 1e-5, 0.25)
    assert len(calls) == 2


def test_encoding_memo_is_keyed_on_the_cut():
    # two generator errors of one cut give the same target and angles, so
    # the same sines at both share one encoding: one miss, then one hit
    levels = np.sin(np.pi * np.array([0.05, 0.15]))
    cut = _arcsin_cut(1e-3, 0.25)
    assert _arcsin_cut(1.01e-3, 0.25) == cut
    blockenc._encoding.cache_clear()
    first = hamiltonian_from_unitary(levels, 1e-3, 0.25)
    second = hamiltonian_from_unitary(levels, 1.01e-3, 0.25)
    info = blockenc._encoding.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert second is first
    assert first.info["arcsin_cut"] == cut and first.info["arcsin_degree"] == cut[1] - 1
    assert 0 < first.info["arcsin_l1"] <= REAL_TARGET_SUP


@pytest.mark.parametrize("delta", [DELTA_MARGIN, 0.1, 0.5])
def test_arcsin_cut_finds_the_economized_target(monkeypatch, delta):
    # the cut the scalar loops find is the economized target's, and the
    # iteration gets its real coefficients times the cut's gain bit for bit:
    # ARCSIN_GAIN, or the gain that takes the l1 norm to REAL_TARGET_SUP
    built = []
    monkeypatch.setattr(blockenc, "real_target_phases", lambda c: built.append(c) or (None, None, 0))
    try:
        for eps in 10.0 ** -np.arange(1.0, 12.0, 0.1):
            blockenc._phases_at_cut.cache_clear()
            built.clear()
            *_, l1, gain = blockenc._phases_at_cut(*_arcsin_cut(eps, delta), delta)
            want = arcsin_target(eps, delta).coefficients.real
            assert gain == min(ARCSIN_GAIN, REAL_TARGET_SUP / np.abs(want).sum()) and l1 <= REAL_TARGET_SUP
            assert [c.tobytes() for c in built] == [(gain * want).tobytes()], eps
    finally:
        blockenc._phases_at_cut.cache_clear()


def test_encoding_memo_stores_no_exception():
    blockenc._encoding.cache_clear()
    levels = np.sin(np.pi * np.array([0.5, 0.0]))
    for _ in range(2):
        with pytest.raises(InfeasibleError):
            hamiltonian_from_unitary(levels, 1e-3, 0.2)
    assert blockenc._encoding.cache_info().currsize == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, 1.0])
@pytest.mark.parametrize("which", ["epsilon", "delta"])
def test_hamiltonian_refuses_budget_outside_unit_interval(which, bad):
    # one refusal for every bad value, before the memo sees the key; a delta
    # of inf or 1 used to fail the sine-norm guard as InfeasibleError instead
    blockenc._encoding.cache_clear()
    budget = {"epsilon": 1e-3, "delta": 0.25, which: bad}
    with pytest.raises(InputError, match="must lie in"):
        hamiltonian_from_unitary(np.sin(np.pi * np.array([0.0, 0.1])), **budget)
    assert blockenc._encoding.cache_info().currsize == 0


@pytest.mark.parametrize("sines, bad", [
    (np.exp(1j * np.pi * np.array([0.0, 0.1])), "entry 0 is (1+0j)"),
    (np.array([0.1, 0.2j], dtype=object), "entry 1 is 0.2j"),
    (np.array([0.1, "x"], dtype=object), "entry 1 is 'x'"),
    ([[0.1], 0.2], "entry 0 is [0.1]"),
], ids=["complex-diagonal", "complex-entry", "string-entry", "ragged"])
def test_hamiltonian_refuses_sines_that_are_not_real_numbers(sines, bad):
    # numpy's conversion alone would drop the diagonal's imaginary parts
    # with only a warning, and refuse an object array's entries, or a
    # ragged list, with a bare TypeError or ValueError
    with pytest.raises(InputError, match="level sines must be real numbers") as info:
        hamiltonian_from_unitary(sines, 1e-3, 0.25)
    assert str(info.value).endswith(bad)


@pytest.mark.parametrize("bad", ["x", "0.01", None, np.array([0.01]), True])
@pytest.mark.parametrize("which", ["epsilon", "delta"])
def test_hamiltonian_refuses_a_budget_that_is_not_a_real_number(which, bad):
    # a string raised a bare ValueError from float(), and a numeric string
    # ran as its number; each is refused before the memo sees the key
    blockenc._encoding.cache_clear()
    budget = {"epsilon": 1e-3, "delta": 0.25, which: bad}
    with pytest.raises(InputError, match="must lie in"):
        hamiltonian_from_unitary(np.array([0.1]), **budget)
    assert blockenc._encoding.cache_info().currsize == 0
