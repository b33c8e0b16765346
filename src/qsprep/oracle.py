"""Amplitude-table oracles and the phase unitary compiled from them.

An oracle is an explicit table c: [2^n] -> [0, 1] together with its m-bit
fixed-point truncation; keeping the table explicit makes every brute-force
reference quantity exact at desk scale. The bit oracle writes the truncated
value into an m-qubit register by XOR; the phase unitary applies
diag(exp(i pi c(x)/2)) via the value register, a ladder of controlled phase
rotations onto a |1>-initialized kickback qubit, and an uncompute pass.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .blockenc import ENGINE_MAX_QUBITS
from .errors import DimensionError, InfeasibleError, InputError
from .simulator import (
    GateSpec,
    RegisterLayout,
    StateVector,
    UnitaryMatrix,
    check_dense_size,
    circuit_unitary,
    cphase,
    unitary_gate,
)


# Most value bits a table is quantized to; 2^m must stay exact in a double.
MAX_BITS = 50


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_bits(m) -> None:
    if not (_is_int(m) and 1 <= m <= MAX_BITS):
        raise InputError(f"need an integer 1..{MAX_BITS} value bits, got m = {m!r}")


def _table_size(n: int) -> int:
    """2^n for a generated table, refused before anything that size exists."""
    if not (_is_int(n) and 0 <= n <= ENGINE_MAX_QUBITS):
        raise InputError(f"need an integer 0..{ENGINE_MAX_QUBITS} data qubits, got n = {n!r}")
    return 2**n


@dataclass(frozen=True)
class AmplitudeOracle:
    """Exact amplitude table plus its m-bit fixed-point quantization.

    The quantized value is floor(c * 2^m) / 2^m, capped at (2^m - 1)/2^m so
    that c = 1 still fits the m-bit register; the cap makes the quantization
    error equal (not below) 2^-m at c = 1 exactly, which the error analysis
    absorbs like any other oracle noise. The oracle keeps a read-only copy
    of the values, and quantizes them on first use of ``quantized``, so an
    oracle that is only requantized with ``with_bits`` never quantizes at
    its own m.
    """

    n: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 0):
            raise InputError(f"need a non-negative integer n of data qubits, got n = {self.n!r}")
        _check_bits(self.m)
        vals = np.array(self.values, dtype=float)  # a copy: the caller's array may change
        if vals.shape != (2**self.n,):
            raise DimensionError(f"expected {2**self.n} amplitudes, got {vals.shape}")
        bad = np.flatnonzero(~((vals >= 0) & (vals <= 1)))
        if bad.size:
            raise InputError(
                f"amplitudes must be finite and lie in [0, 1]; entry {bad[0]} is {vals[bad[0]]}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "values", vals)

    @functools.cached_property
    def quantized(self) -> np.ndarray:
        # floor, cap and scale are exact in doubles for m <= MAX_BITS
        scale = 2.0**self.m
        out = np.minimum(np.floor(self.values * scale), scale - 1.0) / scale
        out.flags.writeable = False
        return out

    @property
    def size(self) -> int:
        return 2**self.n

    def bit_patterns(self) -> np.ndarray:
        """Integer register contents, most significant value bit first."""
        return (self.quantized * 2**self.m).astype(np.int64)

    def with_bits(self, m: int) -> "AmplitudeOracle":
        """The same table at m value bits; the values are not checked again."""
        _check_bits(m)
        if m == self.m:
            return self
        out = object.__new__(AmplitudeOracle)
        # the frozen dataclass refuses attribute assignment, not its __dict__
        out.__dict__.update(n=self.n, m=int(m), values=self.values)
        return out

    # -- generators ---------------------------------------------------------

    @classmethod
    def uniform(cls, n: int, m: int) -> "AmplitudeOracle":
        return cls(n, m, np.ones(_table_size(n)))

    @classmethod
    def indicator(cls, n: int, x0: int, m: int) -> "AmplitudeOracle":
        size = _table_size(n)
        if not (_is_int(x0) and 0 <= x0 < size):
            raise InputError(f"marked item {x0!r} is not an integer in [0, {size})")
        vals = np.zeros(size)
        vals[x0] = 1.0
        return cls(n, m, vals)

    @classmethod
    def gaussian(cls, n: int, mu: float, sigma: float, m: int) -> "AmplitudeOracle":
        if not sigma > 0:
            raise InputError(f"gaussian width must be positive, got {sigma}")
        xs = np.arange(_table_size(n), dtype=float)
        return cls(n, m, np.exp(-((xs - mu) ** 2) / (2 * sigma**2)))

    @classmethod
    def random(cls, n: int, m: int, rng: np.random.Generator) -> "AmplitudeOracle":
        return cls(n, m, rng.uniform(0.0, 1.0, _table_size(n)))

    @classmethod
    def from_dist(cls, n: int, m: int, dist: str) -> "AmplitudeOracle":
        """Parse a generator spec: uniform | indicator:x0 | gaussian:mu,sigma.

        A malformed spec, or an n outside 0 .. ``blockenc.ENGINE_MAX_QUBITS``,
        raises InputError before any table is allocated.
        """
        _table_size(n)
        name, _, args = dist.partition(":")
        try:
            if name == "uniform" and not args:
                return cls.uniform(n, m)
            if name == "indicator":
                return cls.indicator(n, int(args), m)
            if name == "gaussian":
                mu, sigma = (float(t) for t in args.split(","))
                return cls.gaussian(n, mu, sigma, m)
        except ValueError as exc:  # InputError included
            raise InputError(f"bad distribution {dist!r}: {exc}") from exc
        raise InputError(f"unknown distribution {dist!r}")


def oracle_to_text(c: AmplitudeOracle) -> str:
    """Header `n m`, then 2^n decimal amplitudes."""
    lines = [f"{c.n} {c.m}"]
    lines += [f"{v:.17g}" for v in c.values]
    return "\n".join(lines) + "\n"


def oracle_from_text(text: str) -> AmplitudeOracle:
    """Parse ``oracle_to_text`` output; a malformed file raises InputError.

    The header's n must lie in 0 .. ``blockenc.ENGINE_MAX_QUBITS`` and its m
    in 1 .. ``MAX_BITS``; both are checked before any amplitude line is read.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    try:
        n, m = (int(t) for t in lines[0].split())
    except (IndexError, ValueError) as exc:
        raise InputError(f"malformed oracle table header: {exc}") from exc
    if not 0 <= n <= ENGINE_MAX_QUBITS:
        raise InputError(
            f"oracle table header: need 0..{ENGINE_MAX_QUBITS} data qubits, got n = {n}"
        )
    if not 1 <= m <= MAX_BITS:
        raise InputError(f"oracle table header: need 1..{MAX_BITS} value bits, got m = {m}")
    try:
        vals = np.array([float(ln) for ln in lines[1:]])
    except ValueError as exc:
        raise InputError(f"malformed oracle table: {exc}") from exc
    if vals.size != 2**n:
        raise InputError(f"oracle table for n = {n} needs {2**n} amplitudes, got {vals.size}")
    return AmplitudeOracle(n, m, vals)


def _oracle_layout(c: AmplitudeOracle, kickback: bool) -> RegisterLayout:
    regs = [("data", c.n), ("value", c.m)]
    if kickback:
        regs.append(("kick", 1))
    return RegisterLayout(tuple(regs))


def bit_oracle_unitary(c: AmplitudeOracle) -> UnitaryMatrix:
    """Permutation |x>|y> -> |x>|y XOR bits(c_m(x))>; self-inverse."""
    check_dense_size(c.n + c.m)
    layout = _oracle_layout(c, kickback=False)
    dim = layout.dim
    mat = np.zeros((dim, dim), dtype=complex)
    patterns = c.bit_patterns()
    mval = 2**c.m
    for x in range(c.size):
        s = int(patterns[x])
        for y in range(mval):
            mat[x * mval + (y ^ s), x * mval + y] = 1.0
    return UnitaryMatrix(mat, layout)


def _rotation_ladder(c: AmplitudeOracle) -> list[GateSpec]:
    """Controlled phases from each value bit onto the kickback qubit.

    Value bit j carries weight 2^-(j+1), contributing an angle
    pi / 2^(j+2) toward the total phase pi * c_m(x) / 2.
    """
    gates = []
    kick = c.n + c.m
    for j in range(c.m):
        gates.append(cphase(c.n + j, kick, np.pi / 2 ** (j + 2)))
    return gates


def phase_unitary(c: AmplitudeOracle) -> UnitaryMatrix:
    """The compiled circuit: bit oracle, rotation ladder, bit oracle again.

    Acts as diag(exp(i pi c_m(x)/2)) on the data register whenever the
    value register starts in |0..0> and the kickback qubit in |1>, and
    restores both exactly.
    """
    check_dense_size(c.n + c.m + 1)
    layout = _oracle_layout(c, kickback=True)
    oc = bit_oracle_unitary(c)
    oracle_gate = unitary_gate(tuple(range(c.n + c.m)), oc.entries, name="O_c")
    oracle_gate_dg = unitary_gate(tuple(range(c.n + c.m)), oc.entries.conj().T, name="O_c+")
    gates = [oracle_gate, *_rotation_ladder(c), oracle_gate_dg]
    return circuit_unitary(gates, layout)


def phase_unitary_direct(c: AmplitudeOracle, use_exact: bool = False) -> UnitaryMatrix:
    """Reference diagonal diag(exp(i pi c(x)/2)) on the data register only."""
    vals = c.values if use_exact else c.quantized
    phases = np.exp(1j * np.pi * vals / 2.0)
    return UnitaryMatrix(np.diag(phases), RegisterLayout.single(c.n, "data"))


def gamma(c: AmplitudeOracle, use_exact: bool = False) -> float:
    """Mean squared amplitude (1/N) sum c(x)^2."""
    vals = c.values if use_exact else c.quantized
    return float((vals**2).sum() / vals.size)  # np.mean's sum and division, without its wrapper


def target_state(c: AmplitudeOracle) -> StateVector:
    """Normalized reference state with amplitudes proportional to c(x)."""
    g = gamma(c, use_exact=True)
    if g <= 0.0:
        raise InfeasibleError("all amplitudes vanish; the target state is undefined")
    amps = c.values / np.sqrt(c.size * g)
    return StateVector(amps.astype(complex), RegisterLayout.single(c.n, "data"))

