import numpy as np
import pytest

from qsprep.errors import InfeasibleError, InputError, QsprepError
from qsprep.oracle import (
    AmplitudeOracle,
    apply_relative_phase,
    bit_oracle_unitary,
    gamma,
    oracle_from_text,
    oracle_to_text,
    phase_unitary,
    phase_unitary_direct,
    target_state,
)
from qsprep.simulator import RegisterLayout, StateVector, op_dist


def random_oracle(rng, n=2, m=3):
    return AmplitudeOracle.random(n, m, rng)


# ---------------------------------------------------------------------------
# bit oracle
# ---------------------------------------------------------------------------

def test_bit_oracle_of_zero_table_is_identity():
    c = AmplitudeOracle(2, 3, np.zeros(4))
    u = bit_oracle_unitary(c)
    np.testing.assert_allclose(u.entries, np.eye(32), atol=0)


def test_bit_oracle_fixed_point_encoding():
    c = AmplitudeOracle(1, 2, np.array([0.5, 0.0]))
    u = bit_oracle_unitary(c)
    # |0>|00> maps to |0>|10>: 0.5 has fixed-point bits 10
    assert u.entries[2, 0] == 1.0
    assert u.entries[0, 2] == 1.0


def test_bit_oracle_is_involution():
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = random_oracle(rng)
        u = bit_oracle_unitary(c).entries
        np.testing.assert_allclose(u @ u, np.eye(u.shape[0]), atol=0)


def test_quantization_error_bound():
    rng = np.random.default_rng(1)
    for m in (1, 4, 8):
        c = AmplitudeOracle(3, m, rng.uniform(0, 1, 8))
        assert np.abs(c.values - c.quantized).max() < 2.0**-m
    # amplitude exactly 1 caps at (2^m - 1)/2^m: error equals 2^-m there
    c1 = AmplitudeOracle(1, 4, np.array([1.0, 0.25]))
    assert c1.quantized[0] == (2**4 - 1) / 2**4
    assert c1.quantized[1] == 0.25


# ---------------------------------------------------------------------------
# phase unitary
# ---------------------------------------------------------------------------

def test_phase_unitary_zero_table_is_identity_on_data():
    c = AmplitudeOracle(1, 2, np.zeros(2))
    u = phase_unitary(c)
    np.testing.assert_allclose(_data_block(c, u), np.eye(2), atol=1e-15)


def test_phase_unitary_three_quarters():
    c = AmplitudeOracle(1, 3, np.array([0.0, 0.75]))
    u = phase_unitary(c)
    # data |1>, value |000>, kick |1>: index 1*16 + 0*2 + 1
    idx = 1 * 16 + 1
    assert abs(u.entries[idx, idx] - np.exp(3j * np.pi / 8)) < 1e-14


def _data_block(c, u):
    """Restrict the compiled circuit to value |0..0>, kick |1> in and out."""
    dim = 2**c.n
    idx = np.arange(dim) * 2 ** (c.m + 1) + 1
    return u.entries[np.ix_(idx, idx)]


def test_phase_unitary_matches_direct_diagonal():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        c = random_oracle(rng, n=2, m=3)
        u = phase_unitary(c)
        block = _data_block(c, u)
        direct = phase_unitary_direct(c).entries
        worst = max(worst, op_dist(block, direct))
    assert worst <= 1e-12


def test_phase_unitary_restores_ancillas_exactly():
    rng = np.random.default_rng(4)
    c = random_oracle(rng, n=2, m=3)
    u = phase_unitary(c)
    dim_v = 2 ** (c.m + 1)
    for x in range(4):
        col = u.entries[:, x * dim_v + 1]
        support = np.nonzero(np.abs(col) > 0)[0]
        assert list(support) == [x * dim_v + 1]


def test_phase_unitary_scaled_ladder():
    c = AmplitudeOracle(1, 3, np.array([0.0, 0.75]))
    u = phase_unitary(c, scale=0.5)
    idx = 1 * 16 + 1
    assert abs(u.entries[idx, idx] - np.exp(1j * np.pi * 0.5 * 0.75 / 2)) < 1e-14


def test_phase_unitary_direct_constants():
    ones = AmplitudeOracle(2, 4, np.ones(4))
    u = phase_unitary_direct(ones, use_exact=True)
    np.testing.assert_allclose(u.entries, 1j * np.eye(4), atol=1e-15)
    zeros = AmplitudeOracle(2, 4, np.zeros(4))
    np.testing.assert_allclose(phase_unitary_direct(zeros).entries, np.eye(4), atol=0)


def test_exact_vs_quantized_phase_distance():
    rng = np.random.default_rng(5)
    for m in (3, 6):
        c = AmplitudeOracle(3, m, rng.uniform(0, 1, 8))
        d = op_dist(phase_unitary_direct(c, use_exact=True), phase_unitary_direct(c))
        assert d <= np.pi * 2.0 ** (-m - 1)


# ---------------------------------------------------------------------------
# classical references
# ---------------------------------------------------------------------------

def test_gamma_constants():
    ones = AmplitudeOracle(2, 8, np.ones(4))
    assert gamma(ones, use_exact=True) == 1.0
    marked = AmplitudeOracle.indicator(2, 1, 8)
    assert gamma(marked, use_exact=True) == 0.25


def test_gamma_matches_brute_force():
    rng = np.random.default_rng(6)
    c = random_oracle(rng, n=3, m=5)
    brute = sum(v * v for v in c.values) / 8.0
    assert abs(gamma(c, use_exact=True) - brute) < 1e-15
    brute_q = sum(v * v for v in c.quantized) / 8.0
    assert abs(gamma(c) - brute_q) < 1e-15


def test_target_state_uniform_and_indicator():
    ones = AmplitudeOracle(2, 8, 0.7 * np.ones(4))
    np.testing.assert_allclose(target_state(ones).amplitudes, 0.5 * np.ones(4), atol=1e-15)
    marked = AmplitudeOracle.indicator(3, 5, 8)
    amps = target_state(marked).amplitudes
    assert amps[5] == 1.0 and np.abs(amps).sum() == 1.0


def test_target_state_normalized_random():
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = random_oracle(rng, n=3, m=4)
        assert abs(target_state(c).norm() - 1.0) < 1e-14


def test_target_state_rejects_zero_table():
    with pytest.raises(InfeasibleError):
        target_state(AmplitudeOracle(2, 4, np.zeros(4)))


def test_apply_relative_phase():
    rng = np.random.default_rng(8)
    n, m = 3, 12
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    s = StateVector(amps, RegisterLayout.single(n, "data"))
    flat = AmplitudeOracle(n, m, np.zeros(8))
    assert np.array_equal(apply_relative_phase(s, flat).amplitudes, amps)
    full = AmplitudeOracle(n, m, np.ones(8))
    out = apply_relative_phase(s, full)
    # amplitude 1 quantizes to 1 - 2^-m, so the flip is exact to pi 2^-m
    assert np.abs(out.amplitudes + amps).max() <= np.pi * 2.0**-m
    table = AmplitudeOracle(n, m, rng.uniform(0, 1, 8))
    out2 = apply_relative_phase(s, table)
    np.testing.assert_allclose(
        out2.amplitudes, amps * np.exp(1j * np.pi * table.quantized), atol=1e-12
    )


def test_oracle_serialization_round_trip():
    rng = np.random.default_rng(9)
    c = random_oracle(rng, n=3, m=6)
    back = oracle_from_text(oracle_to_text(c))
    assert back.n == c.n and back.m == c.m
    np.testing.assert_allclose(back.values, c.values, rtol=0, atol=0)


def test_from_dist_parsing():
    u = AmplitudeOracle.from_dist(2, 4, "uniform")
    assert np.all(u.values == 1.0)
    i = AmplitudeOracle.from_dist(3, 4, "indicator:5")
    assert i.values[5] == 1.0 and i.values.sum() == 1.0
    g = AmplitudeOracle.from_dist(3, 4, "gaussian:4,2")
    assert g.values[4] == 1.0
    with pytest.raises(ValueError):
        AmplitudeOracle.from_dist(2, 4, "cauchy:1")


def test_phase_unitary_qubit_limit():
    import pytest
    from qsprep.errors import DimensionError

    big = AmplitudeOracle(4, 12, np.zeros(16))
    with pytest.raises(DimensionError):
        phase_unitary(big)


def test_oracle_rejects_non_finite_and_out_of_range_values():
    for bad in (np.nan, np.inf, -0.1, 1.5):
        with pytest.raises(InputError) as info:
            AmplitudeOracle(1, 4, np.array([0.5, bad]))
        assert isinstance(info.value, QsprepError) and isinstance(info.value, ValueError)


def test_oracle_text_rejects_extra_amplitudes():
    with pytest.raises(InputError):
        oracle_from_text("1 4\n0.5\n0.25\n0.75\n")
