from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.linalg

from qsprep import blockenc, phases
from qsprep.blockenc import (
    BlockEncoding,
    extract_block,
    hamiltonian_from_unitary,
    lcu_real_part,
    qsvt_circuit,
    reflection_encoding,
    sine_block_encoding,
)
from qsprep.errors import DimensionError, InfeasibleError, InputError
from qsprep.phases import PhaseSequence, find_phases, polynomial_from_phases
from qsprep.polyapprox import Polynomial, complete_to_complex, evaluate
from qsprep.simulator import Projector, UnitaryMatrix, op_dist


def diag_unitary(hvals):
    hvals = np.asarray(hvals, dtype=float)
    return UnitaryMatrix(np.diag(np.exp(1j * np.pi * hvals)))


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
    from qsprep.polyapprox import arcsin_taylor

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
    be = hamiltonian_from_unitary(np.diag(diag_unitary([0.0, 0.0]).entries), 1e-3, 0.25)
    assert np.abs(generator_block(be)).max() <= 1e-10


def test_hamiltonian_extraction_matches_matrix_log():
    u = diag_unitary([0.25, -0.1])
    be = hamiltonian_from_unitary(np.diag(u.entries), 1e-4, 0.2)
    brute = scipy.linalg.logm(u.entries) / (1j * np.pi)
    assert op_dist(generator_block(be), brute) <= 1e-4
    assert be.info["cu_calls"] == be.info["arcsin_degree"]


def test_hamiltonian_extraction_on_levels_with_a_negative_cosine():
    # |h| > 1/2 puts cos(pi h) below zero, where the sine encoding's
    # off-diagonal entries change sign; the generator is then the principal
    # value arcsin(sin(pi h)) / pi, not h
    h = np.array([0.7, -0.85, 0.95, 0.1])
    u = diag_unitary(h)
    enc = hamiltonian_from_unitary(np.diag(u.entries), 1e-4, 0.15)
    assert enc.diagonal.dtype == np.float64 and enc.diagonal.shape == h.shape
    dense = np.diag(extract_block(lcu_real_part(sine_block_encoding(u), enc.phases)))
    assert np.abs(enc.diagonal - dense).max() <= 1e-12
    assert np.abs(enc.diagonal - np.arcsin(np.sin(np.pi * h)) / np.pi).max() <= 1e-4


def test_hamiltonian_extraction_error_tracks_polynomial_error():
    hvals = [0.3, 0.05, -0.22, 0.35]
    u = diag_unitary(hvals)
    for eps in (1e-3, 1e-5):
        be = hamiltonian_from_unitary(np.diag(u.entries), eps, 0.1)
        assert op_dist(generator_block(be), np.diag(hvals)) <= eps


def test_hamiltonian_call_count_grows_logarithmically():
    u = np.diag(diag_unitary([0.25, -0.1]).entries)
    epss = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    degs = [hamiltonian_from_unitary(u, e, 0.25).info["arcsin_degree"] for e in epss]
    logs = np.log(1.0 / np.array(epss))
    assert degs == sorted(degs)
    slope, offset = np.polyfit(logs, degs, 1)
    fitted = slope * logs + offset
    assert np.abs(fitted - degs).max() <= 0.15 * max(degs) + 2.0


def test_hamiltonian_rejects_amplitude_near_one():
    with pytest.raises(InfeasibleError) as exc:
        hamiltonian_from_unitary(np.diag(diag_unitary([0.5, 0.0]).entries), 1e-3, 0.2)
    assert "rescale" in str(exc.value)


def _encode_cold_then_warm(levels, epsilon, delta):
    blockenc._encoding.cache_clear()
    phases._memo.cache_clear()
    cold = hamiltonian_from_unitary(levels, epsilon, delta)
    blockenc._encoding.cache_clear()  # a second cold build, from the same angles
    again = hamiltonian_from_unitary(levels, epsilon, delta)
    warm = hamiltonian_from_unitary(levels, epsilon, delta)
    return cold, again, warm


def test_encoding_memo_warm_equals_cold():
    levels = np.exp(1j * np.pi * np.array([0.02, 0.11, 0.2]))
    cold, again, warm = _encode_cold_then_warm(levels, 1e-4, 0.25)
    assert warm is again
    assert warm.diagonal.tobytes() == cold.diagonal.tobytes()
    assert warm.phases.phases.tobytes() == cold.phases.phases.tobytes()
    assert dict(warm.info) == dict(cold.info)
    # the key is the exact levels, epsilon and delta: a change in any misses
    for args in ((levels * np.exp(1e-15j), 1e-4, 0.25), (levels, 2e-4, 0.25), (levels, 1e-4, 0.3)):
        assert hamiltonian_from_unitary(*args) is not warm


def test_encoding_memo_results_are_read_only():
    encoding = hamiltonian_from_unitary(np.exp(1j * np.pi * np.array([0.0, 0.1])), 1e-3, 0.25)
    with pytest.raises(ValueError):
        encoding.diagonal[0] = 0.0
    with pytest.raises(TypeError):
        encoding.info["cu_calls"] = 0
    with pytest.raises(FrozenInstanceError):
        encoding.diagonal = None


def test_encoding_memo_hit_builds_no_arcsin_target(monkeypatch):
    # a tracer that rebinds blockenc.arcsin_taylor sees every target the
    # memo builds, and none on a hit; a miss with new levels still builds one
    calls = []
    inner = blockenc.arcsin_taylor

    def counting(epsilon, delta):
        calls.append((epsilon, delta))
        return inner(epsilon, delta)

    monkeypatch.setattr(blockenc, "arcsin_taylor", counting)
    blockenc._encoding.cache_clear()
    levels = np.exp(1j * np.pi * np.array([0.05, 0.15]))
    first = hamiltonian_from_unitary(levels, 1e-3, 0.25)
    assert len(calls) == 1
    assert hamiltonian_from_unitary(levels.copy(), 1e-3, 0.25) is first
    assert len(calls) == 1
    hamiltonian_from_unitary(levels[::-1], 1e-3, 0.25)
    assert len(calls) == 2


def test_encoding_memo_stores_no_exception():
    blockenc._encoding.cache_clear()
    levels = np.exp(1j * np.pi * np.array([0.5, 0.0]))
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
        hamiltonian_from_unitary(np.exp(1j * np.pi * np.array([0.0, 0.1])), **budget)
    assert blockenc._encoding.cache_info().currsize == 0
