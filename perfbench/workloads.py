"""The benchmark's three workloads: inputs drawn from the seed, one unit of
work each, and the checks that decide whether a unit's output is correct.

Each unit is one call into the library with inputs the benchmark generated;
the library receives only the tables and specs, never the seed. ``call``
is the timed part; ``check`` runs after the clock stops. A unit's
input ``i`` is drawn from ``numpy.random.default_rng([seed, i])``, so the
same seed gives the same inputs in the same order, and no two units share
an input.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy as np

from qsprep import cli, pipeline
from qsprep.oracle import AmplitudeOracle

# Inputs generated per run; a run that uses them all ends early.
POOL = 200

SEARCH_N = 3
SEARCH_EPS = 0.05
DENSE_N = 7
DENSE_M = 8
DENSE_EPS = 0.05
DENSE_DELTA = 0.1
SWEEP_N = (2,)
SWEEP_EPS = (0.05, 0.1)
SWEEP_DELTA = (0.1, 0.2)

# Known defect: flat tables fail this inequality of the error analysis
# (for n = 3 uniform: lhs 2.34e-3 > rhs 1.65e-3), while the user-facing
# contract (final error <= eps, success >= 1 - delta) still holds.
KNOWN_DEFECT_CHECK = "sqrt_gamma_diff_le_eps_over_sqrt2_gamma"


@dataclass
class UnitResult:
    """What one unit reports; ``problems`` lists every failed expectation."""

    oracle_calls: int = 0
    degrees: list = field(default_factory=list)  # (d_a, d_s) per preparation
    rows: int = 1
    failed_rows: int = 0  # raised or failed any BoundCheck
    final_error_over_eps: float = 0.0  # largest over the unit's preparations
    success_min: float = 1.0
    problems: list = field(default_factory=list)

    def fingerprint(self) -> list:
        """The deterministic part, compared across runs of one seed."""
        return [self.oracle_calls, [list(d) for d in self.degrees], self.rows, self.failed_rows]


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _dist_to_target(values: np.ndarray, state: np.ndarray) -> float:
    """min over global phases of ||target - e^{i t} state||, target from the table."""
    target = values / np.linalg.norm(values)
    overlap = min(abs(np.vdot(target.astype(complex), state)), 1.0)
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * overlap)))


def _check_report(rep, values, eps, delta, res: UnitResult, where: str = "") -> None:
    """Check one preparation against the table it was asked for.

    A failed ``BoundCheck`` makes a failed row; only the known defect is
    tolerated as correct output, whatever table it shows on.
    """
    d_a, d_s = rep.degrees
    res.degrees.append((d_a, d_s))
    res.oracle_calls += rep.oracle_calls
    failed = {c.name for c in rep.bound_checks if not c.passed}
    if failed:
        res.failed_rows += 1
    if failed - {KNOWN_DEFECT_CHECK}:
        res.problems.append(f"{where}bound checks failed: {sorted(failed)}")
    if rep.oracle_calls != 4 * d_a * d_s:
        res.problems.append(f"{where}oracle_calls {rep.oracle_calls} != 4 * {d_a} * {d_s}")
    err = _dist_to_target(values, rep.final_state.amplitudes)
    if err > eps:
        res.problems.append(f"{where}distance to the table's state {err:.3e} > eps {eps}")
    if rep.success_probability < 1.0 - delta:
        res.problems.append(f"{where}success {rep.success_probability:.6f} < 1 - delta")
    res.final_error_over_eps = max(res.final_error_over_eps, err / eps)
    res.success_min = min(res.success_min, rep.success_probability)


# -- search -----------------------------------------------------------------

SEARCH_WHY = (
    "Single marked item at n = 3, the paper's O(sqrt N) showcase: extended-"
    "precision completion and phase finding are ~99% of a unit, the dense "
    "simulation under 1%."
)


def search_inputs(seed: int) -> list:
    out = []
    for i in range(POOL):
        rng = _rng(seed, i)
        out.append({"x0": int(rng.integers(2**SEARCH_N)), "delta": float(rng.uniform(0.08, 0.12))})
    return out


def search_call(inp: dict, workdir: Path):
    return pipeline.grover_case(SEARCH_N, inp["x0"], inp["delta"], SEARCH_EPS)


def search_check(inp: dict, rep) -> UnitResult:
    res = UnitResult()
    values = np.zeros(2**SEARCH_N)
    values[inp["x0"]] = 1.0
    _check_report(rep, values, SEARCH_EPS, inp["delta"], res)
    return res


# -- dense ------------------------------------------------------------------

DENSE_WHY = (
    "Fresh random table at n = 7 per unit: dense 2^(n+2)-sized unitary "
    "products in qsvt_circuit and lcu_real_part are ~95% of a unit; phase "
    "finding stays in double precision."
)


def dense_inputs(seed: int) -> list:
    return [_rng(seed, i).uniform(0.0, 1.0, 2**DENSE_N) for i in range(POOL)]


def dense_call(values: np.ndarray, workdir: Path):
    oracle = AmplitudeOracle(DENSE_N, DENSE_M, values)
    return pipeline.verify_error_bounds(
        pipeline.PrepConfig(oracle=oracle, epsilon=DENSE_EPS, delta=DENSE_DELTA))


def dense_check(values: np.ndarray, rep) -> UnitResult:
    res = UnitResult()
    _check_report(rep, values, DENSE_EPS, DENSE_DELTA, res)
    return res


# -- sweep ------------------------------------------------------------------

SWEEP_WHY = (
    "One qsprep sweep CLI call over 24 small rows: per-call overhead counts, "
    "indicator rows repeat plan inputs (a cache shows only here), uniform and "
    "near-flat rows fail a known bound check."
)

# Near-flat table that shows the known defect on a non-uniform table: at
# n = 2 it fails the check at eps = 0.05 (lhs 9.68e-4 > rhs 8.94e-4), not
# at eps = 0.1.
SWEEP_NEAR_FLAT = "gaussian:1.5,3"


def sweep_inputs(seed: int) -> list:
    """Grids of 24 rows; the defect fails the same six rows in every grid.

    The four uniform rows and the two eps = 0.05 rows of the fixed near-flat
    gaussian fail it. The seeded gaussians are drawn peaked (sigma <= 1),
    which never trips the defect at n = 2, so that the failing-row count and
    ``pass_ratio`` do not depend on the seed.
    """
    out = []
    for i in range(POOL):
        rng = _rng(seed, i)
        a, b = (int(x) for x in rng.choice(2 ** SWEEP_N[0], size=2, replace=False))
        dists = ["uniform", SWEEP_NEAR_FLAT, f"indicator:{a}", f"indicator:{b}"]
        for _ in range(2):
            mu, sigma = rng.uniform(0.0, 3.0), rng.uniform(0.6, 1.0)
            dists.append(f"gaussian:{mu:.3f},{sigma:.3f}")
        out.append({"n": list(SWEEP_N), "dist": dists,
                    "epsilon": list(SWEEP_EPS), "delta": list(SWEEP_DELTA)})
    return out


def _sweep_table(n: int, dist: str) -> np.ndarray:
    """The amplitude table a sweep row names, built here rather than by qsprep."""
    xs = np.arange(2**n, dtype=float)
    name, _, args = dist.partition(":")
    if name == "uniform":
        return np.ones(2**n)
    if name == "indicator":
        return (xs == int(args)).astype(float)
    mu, sigma = (float(t) for t in args.split(","))
    return np.exp(-((xs - mu) ** 2) / (2 * sigma**2))


def sweep_call(spec: dict, workdir: Path):
    """The CLI reads its grid from a file and writes the rows to another.

    Each row's report is kept (``None`` for a row that raised) by rebinding
    the ``verify_error_bounds`` that ``pipeline.sweep`` calls, so the check
    sees which bound checks failed and the prepared state itself.
    """
    spec_path = workdir / "sweep-spec.json"
    csv_path = workdir / "sweep-rows.csv"
    spec_path.write_text(json.dumps(spec))
    reports = []
    inner = pipeline.verify_error_bounds

    def keep_report(cfg):
        try:
            rep = inner(cfg)
        except Exception:
            reports.append(None)
            raise
        reports.append(rep)
        return rep

    pipeline.verify_error_bounds = keep_report
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--spec", str(spec_path), "--out", str(csv_path)])
    finally:
        pipeline.verify_error_bounds = inner
    return code, csv_path.read_text(), reports


def sweep_check(spec: dict, out) -> UnitResult:
    res = UnitResult()
    code, text, reports = out
    rows = list(csv.DictReader(io.StringIO(text)))
    grid = list(itertools.product(spec["n"], spec["dist"], spec["epsilon"], spec["delta"]))
    res.rows = len(grid)
    if not len(rows) == len(reports) == len(grid):
        res.problems.append(f"{len(rows)} CSV rows and {len(reports)} reports for a grid of {len(grid)}")
        return res
    for (n, dist, eps, delta), row, rep in zip(grid, rows, reports):
        where = f"row n={n} {dist} eps={eps} delta={delta}: "
        if row["status"] != "ok" or rep is None:
            res.failed_rows += 1
            res.problems.append(f"{where}{row['status']}")
            continue
        _check_report(rep, _sweep_table(n, dist), eps, delta, res, where)
        csv_says = (int(row["arcsin_degree"]), int(row["sign_degree"]),
                    int(row["oracle_calls"]), row["pass"] == "True")
        if csv_says != (*rep.degrees, rep.oracle_calls, rep.all_passed):
            res.problems.append(f"{where}CSV row {csv_says} disagrees with the report")
    all_pass = res.failed_rows == 0
    if code != (0 if all_pass else 1):
        res.problems.append(f"exit code {code} with all rows passing = {all_pass}")
    return res


# -- reference kernels ------------------------------------------------------
#
# The speed of the shared host swings by up to ~50 % for minutes at a time:
# dense units took 0.66 s for four minutes and 0.99 s for the next six, and
# pure-Python code moves the same way with CPU time following wall time (so
# it is not stolen time). Raw unit times of runs minutes apart therefore do
# not compare. Before every unit the benchmark times a fixed kernel of the
# kind the workload's units spend their time in, built from numpy or mpmath
# alone, never from qsprep, and reports unit time over the kernel time
# around it (``run.unit_per_ref``). A change to qsprep moves that ratio as
# much as it moves the unit time; a change of host speed moves both sides.


@functools.cache
def _ref_matrix() -> np.ndarray:
    rng = np.random.default_rng(0)
    dim = 2 ** (DENSE_N + 2)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def dense_reference():
    """One complex product at the size of the dense workload's circuit products."""
    a = _ref_matrix()
    return a @ a


@functools.cache
def _ref_poly() -> tuple:
    with mpmath.workdps(80):
        coeffs = [mpmath.mpc(mpmath.mpf(k % 7) / 7 - mpmath.mpf(1) / 3, mpmath.mpf(k % 5) / 5)
                  for k in range(160)]
        points = [mpmath.expjpi(mpmath.mpf(j) / 6) for j in range(12)]
    return coeffs, points


def mp_reference():
    """Horner evaluation of a complex polynomial at 80 digits, the arithmetic
    of the extended-precision completion and phase finding."""
    coeffs, points = _ref_poly()
    with mpmath.workdps(80):
        total = mpmath.mpf(0)
        for z in points:
            v = mpmath.mpc(0)
            for c in coeffs:
                v = v * z + c
            total += abs(v)
    return total


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: object
    call: object
    check: object
    reference: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search", SEARCH_WHY, search_inputs, search_call, search_check, mp_reference),
        Workload("dense", DENSE_WHY, dense_inputs, dense_call, dense_check, dense_reference),
        Workload("sweep", SWEEP_WHY, sweep_inputs, sweep_call, sweep_check, mp_reference),
    )
}


def inputs_sha256(inputs: list) -> str:
    h = hashlib.sha256()
    for inp in inputs:
        if isinstance(inp, np.ndarray):
            h.update(np.ascontiguousarray(inp, dtype="<f8").tobytes())
        else:
            h.update(json.dumps(inp, sort_keys=True).encode())
    return h.hexdigest()
