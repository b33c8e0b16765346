import tracemalloc

import numpy as np
import pytest

from qsprep.blockenc import hamiltonian_from_unitary
from qsprep.errors import DimensionError, InfeasibleError, InputError, QsprepError
from qsprep.oracle import (
    MAX_CLASS_QUBITS,
    MAX_TABLE_QUBITS,
    AmplitudeOracle,
    bit_oracle_unitary,
    gamma,
    oracle_from_text,
    oracle_to_text,
    phase_unitary,
    phase_unitary_direct,
    target_state,
)
from qsprep.pipeline import PrepConfig, prepare_state
from qsprep.simulator import op_dist


def random_oracle(rng, n=2, m=3):
    return AmplitudeOracle(n, m, rng.uniform(0.0, 1.0, 2**n))


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
    u = phase_unitary(c)
    idx = 1 * 16 + 1
    assert abs(u.entries[idx, idx] - np.exp(1j * np.pi * 0.75 / 2)) < 1e-14


def test_phase_unitary_direct_constants():
    ones = AmplitudeOracle(2, 4, np.ones(4))
    # the quantized table caps 1 at (2^m - 1) / 2^m
    np.testing.assert_allclose(phase_unitary_direct(ones).entries, np.exp(1j * np.pi * 15 / 32) * np.eye(4),
                               atol=1e-15)
    zeros = AmplitudeOracle(2, 4, np.zeros(4))
    np.testing.assert_allclose(phase_unitary_direct(zeros).entries, np.eye(4), atol=0)


def test_exact_vs_quantized_phase_distance():
    rng = np.random.default_rng(5)
    for m in (3, 6):
        c = AmplitudeOracle(3, m, rng.uniform(0, 1, 8))
        exact = np.diag(np.exp(1j * np.pi * c.values / 2))
        d = op_dist(exact, phase_unitary_direct(c))
        assert d <= np.pi * 2.0 ** (-m - 1)


# ---------------------------------------------------------------------------
# classical references
# ---------------------------------------------------------------------------

def test_gamma_constants():
    ones = AmplitudeOracle(2, 8, np.ones(4))
    assert gamma(ones) == 1.0
    marked = AmplitudeOracle.indicator(2, 1, 8)
    assert gamma(marked) == 0.25


def test_gamma_matches_brute_force():
    rng = np.random.default_rng(6)
    c = random_oracle(rng, n=3, m=5)
    brute = sum(v * v for v in c.values) / 8.0
    assert abs(gamma(c) - brute) < 1e-15


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


@pytest.mark.parametrize("make, limit", [
    (lambda n: AmplitudeOracle.uniform(n, 8), MAX_CLASS_QUBITS),
    (lambda n: AmplitudeOracle.indicator(n, 0, 8), MAX_CLASS_QUBITS),
    (lambda n: AmplitudeOracle.gaussian(n, 1.0, 2.0, 8), MAX_TABLE_QUBITS),
    (lambda n: AmplitudeOracle.from_dist(n, 8, "uniform"), MAX_CLASS_QUBITS),
], ids=["uniform", "indicator", "gaussian", "from_dist"])
def test_generators_check_size_before_allocating(make, limit):
    # 2^40 doubles would be 8 TiB: the check must come first. A generator
    # that builds its classes allocates no table and goes to
    # MAX_CLASS_QUBITS; one that builds a table stops at MAX_TABLE_QUBITS
    for n in (limit + 1, 64, -1):
        with pytest.raises(InputError):
            make(n)
    assert make(2).size == 4
    if limit == MAX_CLASS_QUBITS:
        tracemalloc.start()
        try:
            big = make(limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert big.size == 2**limit and peak < 2**16


@pytest.mark.parametrize("make", [
    lambda: AmplitudeOracle.uniform(MAX_TABLE_QUBITS + 6, 8),
    lambda: AmplitudeOracle.indicator(MAX_TABLE_QUBITS + 6, 5, 8),
], ids=["uniform", "indicator"])
def test_table_bound_calls_above_the_engine_limit_fail_before_allocating(make):
    oracle = make()
    reads = {
        "values": lambda: oracle.values,
        "quantized": lambda: oracle.quantized,
        "bit_patterns": oracle.bit_patterns,
        "oracle_to_text": lambda: oracle_to_text(oracle),
        "phase_unitary": lambda: phase_unitary(oracle),
        "phase_unitary_direct": lambda: phase_unitary_direct(oracle),
        "target_state": lambda: target_state(oracle),
    }
    tracemalloc.start()
    try:
        for name, read in reads.items():
            with pytest.raises(DimensionError):
                read()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    # what the classes answer needs no table
    one_class = oracle.classes.values.size == 1
    assert gamma(oracle) == (1.0 if one_class else 2.0**-oracle.n)


@pytest.mark.parametrize("error, make", [
    (DimensionError, lambda n: AmplitudeOracle(n, 8, np.ones(2**n))),
    (InputError, lambda n: AmplitudeOracle.gaussian(n, 1.0, 2.0, 8)),
    (InputError, lambda n: AmplitudeOracle.from_dist(n, 8, "gaussian:1,2")),
    (InputError, lambda n: oracle_from_text(f"{n} 8\n" + "0.5\n" * 2**n)),
    (DimensionError, lambda n: AmplitudeOracle.indicator(n, 1, 8).values),
    (DimensionError, lambda n: prepare_state(
        PrepConfig(oracle=AmplitudeOracle.indicator(n, 1, 8), epsilon=0.05, delta=0.1)
    ).final_state),
    (DimensionError, lambda n: hamiltonian_from_unitary(np.zeros(2**n), 1e-3, 0.25)),
], ids=["constructor", "gaussian", "from_dist", "file-header", "generated-values",
        "final_state", "levels"])
def test_one_patched_table_limit_moves_every_site(monkeypatch, error, make):
    monkeypatch.setattr("qsprep.oracle.MAX_TABLE_QUBITS", 3)
    with pytest.raises(error):
        make(4)
    make(3)


@pytest.mark.parametrize("n", range(0, 7))
def test_generated_classes_spell_out_the_table(n):
    size = 2**n
    for oracle, table in (
        (AmplitudeOracle.uniform(n, 6), np.ones(size)),
        (AmplitudeOracle.indicator(n, size - 1, 6), np.eye(size)[size - 1]),
    ):
        assert oracle.values.tolist() == table.tolist()
        assert not oracle.values.flags.writeable
        by_hand = AmplitudeOracle(n, 6, table)
        assert oracle.quantized.tolist() == by_hand.quantized.tolist()
        for classes in (oracle.classes, by_hand.classes):
            assert classes.expand(classes.values).tolist() == table.tolist()
        assert gamma(oracle) == gamma(by_hand)
        assert oracle_to_text(oracle) == oracle_to_text(by_hand)


def test_table_classes_expand_to_the_table():
    values = np.random.default_rng(8).choice([0.0, 0.25, 0.5, 1.0], size=64)
    oracle = AmplitudeOracle(6, 8, values)
    classes = oracle.classes
    assert classes.values.tolist() == values.tolist()
    assert classes.counts.tolist() == [1] * 64
    expanded = classes.expand(classes.values)
    assert expanded.tolist() == values.tolist()
    expanded[0] = 0.75  # a copy: the table is left as it was
    assert oracle.values[0] == values[0]


@pytest.mark.parametrize("n, m", [(2, 2.5), (2, True), (2.0, 8), (True, 8), (2, 8.0), (-1, 8), (2, 0), (2, 51)],
                         ids=["m-float", "m-bool", "n-float", "n-bool", "m-integral-float", "n-negative",
                              "m-zero", "m-past-max"])
def test_oracle_rejects_non_integer_sizes(n, m):
    with pytest.raises(InputError):
        AmplitudeOracle(n, m, np.full(4, 0.5))


@pytest.mark.parametrize("make", [
    lambda: AmplitudeOracle.uniform(2.0, 8),
    lambda: AmplitudeOracle.indicator(True, 0, 8),
    lambda: AmplitudeOracle.from_dist(2, 2.5, "uniform"),
    lambda: AmplitudeOracle.gaussian(2, 1.0, 1.0, True),
], ids=["uniform-n", "indicator-n", "from_dist-m", "gaussian-m"])
def test_generators_reject_non_integer_sizes(make):
    with pytest.raises(InputError):
        make()


@pytest.mark.parametrize("x0", [True, False, 2.5, 1.0, np.float64(3.0), "1", -1, 8],
                         ids=["bool-true", "bool-false", "float", "integral-float",
                              "numpy-float", "str", "negative", "past-the-end"])
def test_indicator_rejects_a_marked_item_that_is_not_an_integer_in_range(x0):
    # True would otherwise index the whole table and mark every entry
    with pytest.raises(InputError, match="marked item"):
        AmplitudeOracle.indicator(3, x0, 8)


@pytest.mark.parametrize("x0", [np.int64(5), np.uint8(5), np.int32(5)])
def test_indicator_accepts_numpy_integer_marked_items(x0):
    c = AmplitudeOracle.indicator(3, x0, 8)
    assert np.flatnonzero(c.values).tolist() == [5]


def test_numpy_integer_sizes_round_trip_through_text():
    c = AmplitudeOracle(np.int64(2), np.int32(5), np.array([0.0, 0.3, 0.7, 1.0]))
    assert type(c.n) is int and type(c.m) is int
    text = oracle_to_text(c)
    assert text.splitlines()[0] == "2 5"
    back = oracle_from_text(text)
    assert (back.n, back.m, back.size) == (2, 5, 4)
    np.testing.assert_array_equal(back.values, c.values)
    np.testing.assert_array_equal(back.quantized, c.quantized)
    assert back.bit_patterns().tolist() == [0, 9, 22, 31]


def test_oracle_keeps_a_read_only_copy_of_its_table():
    values = np.full(4, 0.5)
    c = AmplitudeOracle(2, 8, values)
    values[0] = -3.0  # the caller's array, after the checks ran
    assert c.values.tolist() == [0.5] * 4
    assert c.quantized.tolist() == [0.5] * 4
    for table in (c.values, c.quantized):
        with pytest.raises(ValueError):
            table[0] = 1.0


@pytest.mark.parametrize("values, bad", [
    (np.array([0.5 + 0.5j, 0.2]), "entry 0 is (0.5+0.5j)"),
    ([0.5, 0.2 + 0.1j], "entry 1 is (0.2+0.1j)"),
    ([0.5, "x"], "entry 1 is 'x'"),
    ([[0.5], 0.2], "entry 0 is [0.5]"),
], ids=["complex-array", "list-holding-a-complex", "non-numeric", "ragged"])
def test_oracle_refuses_an_entry_that_is_not_a_real_number(values, bad):
    # numpy alone would drop the imaginary parts of a complex array with
    # only a warning, and refuse the others with a bare TypeError or
    # ValueError (an "inhomogeneous shape" for the ragged list)
    with pytest.raises(InputError, match="amplitudes must be real numbers") as info:
        AmplitudeOracle(1, 8, values)
    assert str(info.value).endswith(bad)


def test_oracle_copies_a_float_table_once():
    values = np.random.default_rng(5).uniform(0.0, 1.0, 2**16)
    tracemalloc.start()
    try:
        AmplitudeOracle(16, 8, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.nbytes <= peak < 1.5 * values.nbytes


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan])
def test_gaussian_refuses_a_width_that_is_not_positive(sigma):
    with pytest.raises(InputError, match="gaussian width must be positive"):
        AmplitudeOracle.gaussian(3, 1.0, sigma, 8)


@pytest.mark.parametrize("text", ["", "2\n0.5\n", "two 6\n0.5\n", "2 6 1\n0.5\n"],
                         ids=["empty", "one-field", "non-integer", "three-fields"])
def test_oracle_text_refuses_a_malformed_header(text):
    with pytest.raises(InputError, match="malformed oracle table header"):
        oracle_from_text(text)


def test_oracle_text_refuses_a_non_numeric_amplitude_line():
    with pytest.raises(InputError, match="malformed oracle table: could not convert"):
        oracle_from_text("2 6\n0.5\nhalf\n0.25\n1\n")
