"""Amplitude-table oracles and the phase unitary compiled from them.

An oracle is an explicit table c: [2^n] -> [0, 1] together with its m-bit
fixed-point truncation; keeping the table explicit makes every brute-force
reference quantity exact at desk scale. The bit oracle writes the truncated
value into an m-qubit register by XOR; the phase unitary applies
diag(exp(i pi c(x)/2)) via the value register, a ladder of controlled phase
rotations onto a |1>-initialized kickback qubit, and an uncompute pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InfeasibleError, InputError
from .simulator import (
    MAX_QUBITS,
    GateSpec,
    RegisterLayout,
    StateVector,
    UnitaryMatrix,
    circuit_unitary,
    cphase,
    unitary_gate,
)


@dataclass(frozen=True)
class AmplitudeOracle:
    """Exact amplitude table plus its m-bit fixed-point quantization.

    The quantized value is floor(c * 2^m) / 2^m, capped at (2^m - 1)/2^m so
    that c = 1 still fits the m-bit register; the cap makes the quantization
    error equal (not below) 2^-m at c = 1 exactly, which the error analysis
    absorbs like any other oracle noise.
    """

    n: int
    m: int
    values: np.ndarray
    quantized: np.ndarray = field(init=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.shape != (2**self.n,):
            raise DimensionError(f"expected {2**self.n} amplitudes, got {vals.shape}")
        bad = np.flatnonzero(~((vals >= 0) & (vals <= 1)))
        if bad.size:
            raise InputError(
                f"amplitudes must be finite and lie in [0, 1]; entry {bad[0]} is {vals[bad[0]]}"
            )
        if self.m < 1:
            raise ValueError("need at least one value bit")
        object.__setattr__(self, "values", vals)
        ints = np.minimum(np.floor(vals * 2**self.m), 2**self.m - 1).astype(np.int64)
        object.__setattr__(self, "quantized", ints / 2**self.m)

    @property
    def size(self) -> int:
        return 2**self.n

    def bit_patterns(self) -> np.ndarray:
        """Integer register contents, most significant value bit first."""
        return (self.quantized * 2**self.m).astype(np.int64)

    def with_bits(self, m: int) -> "AmplitudeOracle":
        return AmplitudeOracle(self.n, m, self.values)

    # -- generators ---------------------------------------------------------

    @classmethod
    def uniform(cls, n: int, m: int) -> "AmplitudeOracle":
        return cls(n, m, np.ones(2**n))

    @classmethod
    def indicator(cls, n: int, x0: int, m: int) -> "AmplitudeOracle":
        if not 0 <= x0 < 2**n:
            raise ValueError(f"marked item {x0} outside [0, {2**n})")
        vals = np.zeros(2**n)
        vals[x0] = 1.0
        return cls(n, m, vals)

    @classmethod
    def gaussian(cls, n: int, mu: float, sigma: float, m: int) -> "AmplitudeOracle":
        xs = np.arange(2**n, dtype=float)
        return cls(n, m, np.exp(-((xs - mu) ** 2) / (2 * sigma**2)))

    @classmethod
    def random(cls, n: int, m: int, rng: np.random.Generator) -> "AmplitudeOracle":
        return cls(n, m, rng.uniform(0.0, 1.0, 2**n))

    @classmethod
    def from_dist(cls, n: int, m: int, dist: str) -> "AmplitudeOracle":
        """Parse a generator spec: uniform | indicator:x0 | gaussian:mu,sigma."""
        name, _, args = dist.partition(":")
        if name == "uniform":
            return cls.uniform(n, m)
        if name == "indicator":
            return cls.indicator(n, int(args), m)
        if name == "gaussian":
            mu, sigma = (float(t) for t in args.split(","))
            return cls.gaussian(n, mu, sigma, m)
        raise ValueError(f"unknown distribution {dist!r}")


def oracle_to_text(c: AmplitudeOracle) -> str:
    """Header `n m`, then 2^n decimal amplitudes."""
    lines = [f"{c.n} {c.m}"]
    lines += [f"{v:.17g}" for v in c.values]
    return "\n".join(lines) + "\n"


def oracle_from_text(text: str) -> AmplitudeOracle:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    try:
        n, m = (int(t) for t in lines[0].split())
        vals = np.array([float(ln) for ln in lines[1:]])
    except (IndexError, ValueError) as exc:
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
    if c.n + c.m > MAX_QUBITS:
        raise DimensionError(f"{c.n + c.m} qubits exceeds the simulator limit {MAX_QUBITS}")
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


def _rotation_ladder(c: AmplitudeOracle, scale: float) -> list[GateSpec]:
    """Controlled phases from each value bit onto the kickback qubit.

    Value bit j carries weight 2^-(j+1), contributing an angle
    scale * pi / 2^(j+2) toward the total phase scale * pi * c_m(x) / 2.
    """
    gates = []
    kick = c.n + c.m
    for j in range(c.m):
        gates.append(cphase(c.n + j, kick, scale * np.pi / 2 ** (j + 2)))
    return gates


def phase_unitary(c: AmplitudeOracle, scale: float = 1.0) -> UnitaryMatrix:
    """The compiled circuit: bit oracle, rotation ladder, bit oracle again.

    Acts as diag(exp(i pi scale c_m(x)/2)) on the data register whenever the
    value register starts in |0..0> and the kickback qubit in |1>, and
    restores both exactly.
    """
    if c.n + c.m + 1 > MAX_QUBITS:
        raise DimensionError(
            f"{c.n + c.m + 1} qubits exceeds the simulator limit {MAX_QUBITS}"
        )
    layout = _oracle_layout(c, kickback=True)
    oc = bit_oracle_unitary(c)
    oracle_gate = unitary_gate(tuple(range(c.n + c.m)), oc.entries, name="O_c")
    oracle_gate_dg = unitary_gate(tuple(range(c.n + c.m)), oc.entries.conj().T, name="O_c+")
    gates = [oracle_gate, *_rotation_ladder(c, scale), oracle_gate_dg]
    return circuit_unitary(gates, layout)


def phase_unitary_direct(c: AmplitudeOracle, use_exact: bool = False, scale: float = 1.0) -> UnitaryMatrix:
    """Reference diagonal diag(exp(i pi scale c(x)/2)) on the data register only."""
    vals = c.values if use_exact else c.quantized
    phases = np.exp(1j * np.pi * scale * vals / 2.0)
    return UnitaryMatrix(np.diag(phases), RegisterLayout.single(c.n, "data"))


def gamma(c: AmplitudeOracle, use_exact: bool = False) -> float:
    """Mean squared amplitude (1/N) sum c(x)^2."""
    vals = c.values if use_exact else c.quantized
    return float(np.mean(vals**2))


def target_state(c: AmplitudeOracle) -> StateVector:
    """Normalized reference state with amplitudes proportional to c(x)."""
    g = gamma(c, use_exact=True)
    if g <= 0.0:
        raise InfeasibleError("all amplitudes vanish; the target state is undefined")
    amps = c.values / np.sqrt(c.size * g)
    return StateVector(amps.astype(complex), RegisterLayout.single(c.n, "data"))


def apply_relative_phase(s: StateVector, phi: AmplitudeOracle) -> StateVector:
    """Multiply the amplitude at x by exp(i pi phi_m(x)).

    The phases are multiplied in directly, one per amplitude, from the
    quantized table phi_m. The factor is pi rather than the phase oracle's
    pi/2, so the reachable phases span the full circle.
    """
    if s.dim != phi.size:
        raise DimensionError("state dimension does not match the phase table")
    factors = np.exp(1j * np.pi * phi.quantized)
    return StateVector(s.amplitudes * factors, s.layout)
