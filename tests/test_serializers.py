"""Round-trip properties of the three text formats."""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qsprep.oracle import AmplitudeOracle, oracle_from_text, oracle_to_text
from qsprep.phases import PhaseSequence, phases_from_text, phases_to_text
from qsprep.polyapprox import Polynomial, poly_from_text, poly_to_text

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def polynomials(draw):
    basis = draw(st.sampled_from(["monomial", "chebyshev"]))
    parity = draw(st.sampled_from(["even", "odd", "none"]))
    size = draw(st.integers(1, 40))
    re = np.array(draw(st.lists(finite, min_size=size, max_size=size)))
    im = np.array(draw(st.lists(finite, min_size=size, max_size=size)))
    c = re + 1j * im
    if parity != "none":
        c[(1 if parity == "even" else 0)::2] = 0.0
    return Polynomial(c, basis, parity)


@given(polynomials())
def test_polynomial_text_round_trip(p):
    back = poly_from_text(poly_to_text(p))
    assert (back.basis, back.parity, back.degree) == (p.basis, p.parity, p.degree)
    np.testing.assert_array_equal(back.coefficients, p.coefficients[: p.degree + 1])


@given(st.lists(st.floats(-10.0, 10.0, allow_nan=False), max_size=50))
def test_phases_text_round_trip(angles):
    phi = PhaseSequence(np.array(angles, dtype=float))
    back = phases_from_text(phases_to_text(phi))
    np.testing.assert_array_equal(back.phases, phi.phases)


@given(
    st.integers(0, 4).flatmap(
        lambda n: st.lists(st.floats(0.0, 1.0), min_size=2**n, max_size=2**n)
    ),
    st.integers(1, 50),
)
def test_oracle_text_round_trip(values, m):
    n = len(values).bit_length() - 1
    c = AmplitudeOracle(n, m, np.array(values))
    back = oracle_from_text(oracle_to_text(c))
    assert (back.n, back.m) == (c.n, c.m)
    np.testing.assert_array_equal(back.values, c.values)
    np.testing.assert_array_equal(back.quantized, c.quantized)
