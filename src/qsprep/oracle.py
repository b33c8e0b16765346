"""Amplitude-table oracles and the phase unitary compiled from them.

An oracle is a table c: [2^n] -> [0, 1] together with its m-bit fixed-point
truncation. The pipeline reads a table through classes of indices that share
a value (each class's value and how many indices it holds). A table given as
values is its own classes, one index each; a table with a short description
need never be written out: the ``uniform`` and ``indicator`` generators
build their one or two classes directly, and the 2^n values exist only once
something reads them. The bit oracle writes the truncated value into an
m-qubit register by XOR; the phase unitary applies diag(exp(i pi c(x)/2))
via the value register, a ladder of controlled phase rotations onto a
|1>-initialized kickback qubit, and an uncompute pass.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InfeasibleError, InputError
from .simulator import (
    GateSpec,
    StateVector,
    UnitaryMatrix,
    check_dense_size,
    circuit_unitary,
    cphase,
    unitary_gate,
)


# Most value bits a table is quantized to; 2^m must stay exact in a double.
MAX_BITS = 50
# Most data qubits of a table given as values (the constructor, ``gaussian``,
# a table file) and of any 2^n-sized array built from classes. What grows
# with N is the grouping of the entries by register content, the sums over
# them and one real final state, about 24 bytes per index at the traced
# peak: on a 2-vCPU x86 host verify_error_bounds on a uniform-random table
# (eps 0.05, delta 0.1, 1024 levels) takes 0.06 s with 81 MB peak resident
# for the whole process at n = 20, and 0.8 s with 682 MB at n = 24. Every
# check reads it when it runs.
MAX_TABLE_QUBITS = 24
# Most data qubits of an oracle built from its classes (``uniform``,
# ``indicator``). Every count, N - 1 included, is then an integer that a
# double holds exactly, so the count-weighted sums over classes are as
# exact as sums over the indices.
MAX_CLASS_QUBITS = 53


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# the class values of the generated oracles, shared by all of them
_ONE = _read_only(np.array([1.0]))
_ZERO_ONE = _read_only(np.array([0.0, 1.0]))
# the counts of a table given as values, one per index: every such table
# reads a slice of this one read-only zero-stride view, which holds a single
# integer whatever its length
_UNIT_COUNTS = np.broadcast_to(np.int64(1), (2**MAX_CLASS_QUBITS,))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_bits(m) -> None:
    if not (_is_int(m) and 1 <= m <= MAX_BITS):
        raise InputError(f"need an integer m of 1..{MAX_BITS} value bits, got {m!r}")


def _check_table_size(n: int) -> None:
    if n > MAX_TABLE_QUBITS:
        raise DimensionError(f"n = {n} data qubits exceeds the table limit {MAX_TABLE_QUBITS}")


def _size(n, limit: int) -> int:
    """2^n for a generated oracle, refused before anything that size exists."""
    if not (_is_int(n) and 0 <= n <= limit):
        raise InputError(f"need an integer 0..{limit} data qubits, got n = {n!r}")
    return 2**n


def _register_contents(values: np.ndarray, m: int) -> np.ndarray:
    """min(floor(c * 2^m), 2^m - 1) as int64: what the bit oracle writes for each value.

    The values lie in [0, 1], so truncation toward zero is the floor.
    """
    q = (values * 2.0**m).astype(np.int64)
    np.minimum(q, 2**m - 1, out=q)
    return q


def _quantize(values: np.ndarray, m: int) -> np.ndarray:
    """floor(c * 2^m) / 2^m, capped at (2^m - 1) / 2^m; exact in doubles for m <= MAX_BITS."""
    return _register_contents(values, m) / 2.0**m


@dataclass(frozen=True, eq=False, slots=True)
class ValueClasses:
    """A table as classes of indices that share a value.

    Class k holds ``counts[k]`` indices, all of value ``values[k]``. Without
    ``singles`` (None) class x is index x: a table given as values, whose
    counts are all one. A generated oracle's classes ascend, and every index
    is in class 0 except ``singles[k - 1]``, the one index of class k >= 1.
    """

    values: np.ndarray
    counts: np.ndarray
    singles: tuple[int, ...] | None = None

    def expand(self, per_class: np.ndarray) -> np.ndarray:
        """A new array with ``per_class[k]`` at every index of class k.

        A generated oracle's 2^n entries are refused with DimensionError
        above ``MAX_TABLE_QUBITS`` data qubits, before any exists.
        """
        if self.singles is None:
            return per_class.copy()
        size = int(self.counts.sum())
        _check_table_size(size.bit_length() - 1)  # size is 2^n
        out = np.full(size, per_class[0], dtype=per_class.dtype)
        out[list(self.singles)] = per_class[1:]
        return out

    def total(self, per_class: np.ndarray) -> float:
        """The sum over every index of ``per_class[k]`` at the indices of class k.

        A table given as values sums its entries pairwise (``ndarray.sum``):
        its counts are all one, and a product with their zero-stride view
        would first cast it to a new N-sized array of doubles.
        """
        if self.singles is None:
            return float(per_class.sum())
        return float(self.counts @ per_class)


@dataclass(frozen=True, eq=False, init=False)
class AmplitudeOracle:
    """Amplitude table plus its m-bit fixed-point quantization.

    The quantized value is floor(c * 2^m) / 2^m, capped at (2^m - 1)/2^m so
    that c = 1 still fits the m-bit register; the cap makes the quantization
    error equal (not below) 2^-m at c = 1 exactly, which the error analysis
    absorbs like any other oracle noise. ``AmplitudeOracle(n, m, values)``
    refuses n above ``MAX_TABLE_QUBITS`` with DimensionError before it
    copies the values and keeps a read-only copy, whose entries are its
    ``classes``; the ``uniform`` and ``indicator`` generators build the
    classes and leave ``values`` unbuilt until it is read. Quantization is
    lazy too: a preparation quantizes the class values, never the table.
    """

    n: int
    m: int

    def __init__(self, n: int, m: int, values):
        if not (_is_int(n) and n >= 0):
            raise InputError(f"need a non-negative integer n of data qubits, got n = {n!r}")
        _check_bits(m)
        _check_table_size(n)
        vals = np.array(values, dtype=float)  # a copy: the caller's array may change
        if vals.shape != (2**n,):
            raise DimensionError(f"expected {2**n} amplitudes, got {vals.shape}")
        # written so that a NaN fails it; the entry is looked up only then
        if not (vals.min() >= 0 and vals.max() <= 1):
            bad = np.flatnonzero(~((vals >= 0) & (vals <= 1)))
            raise InputError(
                f"amplitudes must be finite and lie in [0, 1]; entry {bad[0]} is {vals[bad[0]]}"
            )
        # the frozen dataclass refuses attribute assignment, not its __dict__
        self.__dict__.update(n=int(n), m=int(m), values=_read_only(vals))

    @classmethod
    def _from_classes(cls, n: int, m, classes: ValueClasses) -> "AmplitudeOracle":
        _check_bits(m)
        out = object.__new__(cls)
        out.__dict__.update(n=int(n), m=int(m), classes=classes)
        return out

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The 2^n amplitudes; a generated oracle builds them on first read."""
        return _read_only(self.classes.expand(self.classes.values))

    @functools.cached_property
    def classes(self) -> ValueClasses:
        """The table's classes: a generated oracle is built with them, and a
        table given as values is its own, one index each, and its counts
        are one read-only scalar seen at every index, not an N-sized array."""
        return ValueClasses(self.values, _UNIT_COUNTS[: self.size])

    @functools.cached_property
    def quantized(self) -> np.ndarray:
        return _read_only(_quantize(self.values, self.m))

    @property
    def size(self) -> int:
        return 2**self.n

    def bit_patterns(self) -> np.ndarray:
        """Integer register contents, most significant value bit first."""
        return _register_contents(self.values, self.m)

    # -- generators ---------------------------------------------------------

    @classmethod
    def uniform(cls, n: int, m: int) -> "AmplitudeOracle":
        """All amplitudes 1: one class. n may reach ``MAX_CLASS_QUBITS``."""
        size = _size(n, MAX_CLASS_QUBITS)
        return cls._from_classes(n, m, ValueClasses(_ONE, _read_only(np.array([size])), ()))

    @classmethod
    def indicator(cls, n: int, x0: int, m: int) -> "AmplitudeOracle":
        """Amplitude 1 at x0 and 0 elsewhere: two classes. n may reach ``MAX_CLASS_QUBITS``."""
        size = _size(n, MAX_CLASS_QUBITS)
        if not (_is_int(x0) and 0 <= x0 < size):
            raise InputError(f"marked item {x0!r} is not an integer in [0, {size})")
        if size == 1:
            return cls.uniform(n, m)
        classes = ValueClasses(_ZERO_ONE, _read_only(np.array([size - 1, 1])), singles=(int(x0),))
        return cls._from_classes(n, m, classes)

    @classmethod
    def gaussian(cls, n: int, mu: float, sigma: float, m: int) -> "AmplitudeOracle":
        if not sigma > 0:
            raise InputError(f"gaussian width must be positive, got {sigma}")
        xs = np.arange(_size(n, MAX_TABLE_QUBITS), dtype=float)
        return cls(n, m, np.exp(-((xs - mu) ** 2) / (2 * sigma**2)))

    @classmethod
    def from_dist(cls, n: int, m: int, dist: str) -> "AmplitudeOracle":
        """Parse a generator spec: uniform | indicator:x0 | gaussian:mu,sigma.

        A malformed spec, or an n outside the generator's range (0 ..
        ``MAX_CLASS_QUBITS`` for ``uniform`` and ``indicator``, 0 ..
        ``MAX_TABLE_QUBITS`` for ``gaussian``), raises InputError
        before any table is allocated.
        """
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
    """Header `n m`, then 2^n decimal amplitudes (at most ``MAX_TABLE_QUBITS`` data qubits)."""
    lines = [f"{c.n} {c.m}"]
    lines += [f"{v:.17g}" for v in c.values]
    return "\n".join(lines) + "\n"


def oracle_from_text(text: str) -> AmplitudeOracle:
    """Parse ``oracle_to_text`` output; a malformed file raises InputError.

    The header's n must lie in 0 .. ``MAX_TABLE_QUBITS`` and its m in 1 ..
    ``MAX_BITS``; both are checked before any amplitude line is read.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    try:
        n, m = (int(t) for t in lines[0].split())
    except (IndexError, ValueError) as exc:
        raise InputError(f"malformed oracle table header: {exc}") from exc
    try:
        _size(n, MAX_TABLE_QUBITS)
        _check_bits(m)
    except InputError as exc:
        raise InputError(f"oracle table header: {exc}") from exc
    try:
        vals = np.array(lines[1:], dtype=float)
    except ValueError as exc:
        raise InputError(f"malformed oracle table: {exc}") from exc
    if vals.size != 2**n:
        raise InputError(f"oracle table for n = {n} needs {2**n} amplitudes, got {vals.size}")
    return AmplitudeOracle(n, m, vals)


# The compiled oracle's qubits, most significant first: the n data qubits,
# the m value qubits and, for the phase unitary, one kickback qubit.
def bit_oracle_unitary(c: AmplitudeOracle) -> UnitaryMatrix:
    """Permutation |x>|y> -> |x>|y XOR bits(c_m(x))>; self-inverse."""
    check_dense_size(c.n + c.m)
    dim = 2 ** (c.n + c.m)
    mat = np.zeros((dim, dim), dtype=complex)
    patterns = c.bit_patterns()
    mval = 2**c.m
    for x in range(c.size):
        s = int(patterns[x])
        for y in range(mval):
            mat[x * mval + (y ^ s), x * mval + y] = 1.0
    return UnitaryMatrix(mat)


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
    oc = bit_oracle_unitary(c)
    oracle_gate = unitary_gate(tuple(range(c.n + c.m)), oc.entries, name="O_c")
    oracle_gate_dg = unitary_gate(tuple(range(c.n + c.m)), oc.entries.conj().T, name="O_c+")
    gates = [oracle_gate, *_rotation_ladder(c), oracle_gate_dg]
    return circuit_unitary(gates, c.n + c.m + 1)


def phase_unitary_direct(c: AmplitudeOracle) -> UnitaryMatrix:
    """Reference diagonal diag(exp(i pi c_m(x)/2)) on the data register only."""
    phases = np.exp(1j * np.pi * c.quantized / 2.0)
    return UnitaryMatrix(np.diag(phases))


def gamma(c: AmplitudeOracle) -> float:
    """Mean squared amplitude (1/N) sum c(x)^2, summed over the classes with their counts."""
    classes = c.classes
    return classes.total(classes.values**2) / c.size


def target_state(c: AmplitudeOracle) -> StateVector:
    """Normalized reference state with amplitudes proportional to c(x)."""
    g = gamma(c)
    if g <= 0.0:
        raise InfeasibleError("all amplitudes vanish; the target state is undefined")
    amps = c.values / np.sqrt(c.size * g)
    return StateVector(amps.astype(complex))

