"""End-to-end oracle state preparation, the error-bound harness, the search
special case, and parameter sweeps.

The pipeline compiles the phase unitary from the quantized amplitude table
(with the amplitudes internally rescaled by ``BETA``), extracts the generator
through the sine encoding and an arcsin transform, and amplifies the flagged
component with a fixed-point plan of closed-form angles. The user-facing
accuracy target is met by aiming the internal generator error at
epsilon * gamma / 3; that premise is checked against gamma / 4 before any
circuit is built.

All reference quantities (gamma, the target state, the error bounds) are
computed classically from the exact table, as count-weighted sums or maxima
over its classes (a table's entries, a generated oracle's one or two
classes), so every inequality the analysis promises is checkable per run,
and an oracle with few classes costs no 2^n-sized array unless a caller
reads the prepared state.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .amplifier import AmplificationPlan, amplify_state, plan_amplification
from .blockenc import LevelEncoding, hamiltonian_from_unitary
from .errors import InfeasibleError, InputError, QsprepError
from .oracle import MAX_BITS, AmplitudeOracle, ValueClasses, _is_int, _quantize, gamma
from .simulator import StateVector

SWEEP_COLUMNS = [
    "n",
    "m",
    "gamma",
    "epsilon",
    "delta",
    "arcsin_degree",
    "sign_degree",  # the amplification's round count L (its polynomial's degree)
    "oracle_calls",
    "fidelity",
    "success_prob",
    "bound_3eps_over_gamma_lhs",
    "bound_3eps_over_gamma_rhs",
    "pass",
    "status",
]

# Amplitude rescale inside the pipeline: the sine spectrum stays below
# sin(pi BETA / 2), clear of the arcsin approximant's endpoints, and the
# normalization of the final state cancels the factor again.
BETA = 0.5
# margin of the arcsin approximant's interval below 1: 1 - sin(pi BETA / 2)
DELTA_MARGIN = float(1.0 - np.sin(np.pi * BETA / 2.0))


@dataclass(frozen=True, slots=True)
class PrepConfig:
    """Parameters of one preparation run.

    The run quantizes the table at m = ceil(log2(3 / (epsilon * gamma))) + 2
    value bits, capped at ``MAX_BITS``, which keeps the quantization's share
    of the generator error budget below a quarter.
    """

    oracle: AmplitudeOracle
    epsilon: float
    delta: float

    def __post_init__(self):
        if not _is_real(self.delta) or not 0 < self.delta < 1:
            raise InputError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not _is_real(self.epsilon) or not 0 < self.epsilon < np.inf:
            raise InputError(f"epsilon must be positive, got {self.epsilon!r}")


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool
    relation: str = "<="

    @classmethod
    def le(cls, name: str, lhs: float, rhs: float, slack: float = 0.0) -> "BoundCheck":
        return cls(name, float(lhs), float(rhs), bool(lhs <= rhs + slack))

    @classmethod
    def eq(cls, name: str, lhs: float, rhs: float) -> "BoundCheck":
        return cls(name, float(lhs), float(rhs), bool(lhs == rhs), "==")


@dataclass
class PrepReport:
    """What a preparation reports; ``final_state`` is built on first read.

    Every number here is a count-weighted sum or a max over the oracle's
    classes, so a report costs O(classes), not O(2^n).
    """

    fidelity_to_target: float
    success_probability: float
    oracle_calls: int
    degrees: tuple[int, int]
    bound_checks: list[BoundCheck] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    _final: Callable[[], StateVector] | None = field(default=None, repr=False)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.bound_checks)

    @functools.cached_property
    def final_state(self) -> StateVector:
        """The prepared data-register state, 2^n amplitudes.

        Raises DimensionError above ``oracle.MAX_TABLE_QUBITS`` data qubits,
        before any amplitude exists, and again on every later read. Once the
        state is built, the per-class state it was built from is dropped.
        """
        state = self._final()
        self._final = None
        return state


def default_bits(epsilon: float, gamma_value: float) -> int:
    # a ratio past the largest double (a table of amplitudes near 1e-160)
    # asks for far more than MAX_BITS bits either way
    return math.ceil(math.log2(min(3.0 / (epsilon * gamma_value), sys.float_info.max))) + 2


@dataclass
class _RunResult:
    config: PrepConfig
    m: int
    encoding: LevelEncoding
    plan: AmplificationPlan
    success: float
    gamma_exact: float
    gamma_quant: float
    gamma_realized: float
    eps_measured: float
    # the final, realized and target states, each at one index of every
    # class of ``value_classes``; the reports weight them by the class counts
    value_classes: ValueClasses
    final: np.ndarray
    realized: np.ndarray
    target: np.ndarray
    oracle_calls: int
    levels: int  # the engine's level count K


def _state(classes: ValueClasses, per_class: np.ndarray) -> StateVector:
    return StateVector(classes.expand(per_class))


def _execute(cfg: PrepConfig) -> _RunResult:
    oracle = cfg.oracle
    # a table is its own classes; a generated oracle knows its few
    value_classes = oracle.classes
    g_exact = gamma(oracle)
    if g_exact <= 0.0:
        top = float(value_classes.values.max())
        if top > 0.0:
            raise InfeasibleError(
                f"gamma underflows to 0 in double precision: the largest amplitude is {top:.3e}"
            )
        raise InfeasibleError("gamma = 0: the amplitude table is identically zero")
    # target for the measured per-amplitude deviation max |c~ - c|
    eps_hat_target = cfg.epsilon * g_exact / 3.0
    if eps_hat_target > g_exact / 4.0:
        raise InfeasibleError(
            f"epsilon = {cfg.epsilon} is infeasible: the substituted amplitude "
            f"error {eps_hat_target:.3e} exceeds gamma/4 = {g_exact / 4:.3e}"
        )
    # epsilon <= 3/4 here, so the derived m is at least 4
    m = min(default_bits(cfg.epsilon, g_exact), MAX_BITS)

    # quantization's share of the amplitude-error budget
    q_part = 2.0**-m
    if eps_hat_target - q_part <= 0:
        raise InfeasibleError(
            f"m = {m} value bits leave no room in the error budget; "
            f"quantization alone contributes {q_part:.3e} >= {eps_hat_target:.3e}"
        )
    # keep the polynomial's (smooth, sign-coherent) error well below the
    # quantization noise so the realized per-amplitude error profile stays
    # incoherent; costs only a few extra polynomial terms
    eps_poly = max(min(eps_hat_target - q_part, q_part / 4.0), eps_hat_target / 16.0)

    # recenter the truncated table by half a step: one classically-known
    # global phase turns the one-sided floor error into a symmetric one
    c_q = _quantize(value_classes.values, m) + 2.0 ** -(m + 1)
    # the block of an index depends only on its quantized value, so the
    # engine runs on the K distinct values (levels), in ascending order:
    # level_of maps each class to its level and counts[k] is the number of
    # indices at level k. When the quantized class values strictly ascend,
    # as the generated oracles' do, level_of is an identity slice and a
    # search preparation spends no array operation on the map; otherwise
    # one sort of the quantized class values groups them
    if (c_q[1:] > c_q[:-1]).all():
        levels, level_of, counts = c_q, slice(None), value_classes.counts
    else:
        levels, level_of = np.unique(c_q, return_inverse=True)
        counts = np.bincount(level_of, weights=value_classes.counts)
    del c_q  # a per-class array that nothing below reads
    size = oracle.size
    encoding = hamiltonian_from_unitary(
        np.exp(1j * np.pi * BETA * levels / 2.0),
        BETA * eps_poly / 2.0,  # generator units: BETA * amplitude / 2
        DELTA_MARGIN,
    )

    # the encoded generator is diagonal (and real), so its spectral distance
    # to the table is the largest per-index deviation
    c_level = 2.0 * encoding.diagonal / BETA
    eps_measured = float(np.abs(c_level[level_of] - value_classes.values).max())
    g_realized = float(counts @ c_level**2) / size
    g_quant = float(counts @ levels**2) / size

    sigma_hat = BETA * math.sqrt(g_quant) / 2.0
    plan = plan_amplification(sigma_hat, cfg.delta)

    # post-select the flag pattern: the amplified flagged amplitudes per level
    flagged, applications = amplify_state(encoding.diagonal, counts, plan)
    norm = math.sqrt(counts @ np.abs(flagged) ** 2)
    if norm < 1e-14:  # nothing flagged: the empty state, as project_measure gives
        success, data_level = 0.0, np.zeros(levels.size, dtype=complex)
    else:
        success, data_level = norm**2, flagged / norm
    realized_norm = math.sqrt(size * g_realized)
    realized_level = c_level / realized_norm if realized_norm > 0 else np.zeros_like(c_level)
    overlap = complex(counts @ (realized_level * data_level))
    if abs(overlap) > 1e-12:  # remove the global phase
        data_level = data_level * (overlap.conjugate() / abs(overlap))

    # each use of C or its adjoint runs every transform layer, and each layer
    # queries the controlled phase unitary and its adjoint (both select
    # branches share them); each query is an O_c pair
    oracle_calls = applications * encoding.info["cu_calls"] * 2 * 2

    return _RunResult(
        config=cfg,
        m=m,
        encoding=encoding,
        plan=plan,
        success=success,
        gamma_exact=g_exact,
        gamma_quant=g_quant,
        gamma_realized=g_realized,
        eps_measured=eps_measured,
        value_classes=value_classes,
        final=data_level[level_of],
        realized=realized_level[level_of],
        target=value_classes.values / math.sqrt(size * g_exact),
        oracle_calls=oracle_calls,
        levels=levels.size,
    )


def _distance(counts: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| for states given at one index of each class."""
    return math.sqrt(counts @ np.abs(a - b) ** 2)


def _base_report(run: _RunResult) -> PrepReport:
    cfg = run.config
    counts = run.value_classes.counts
    # the target is real, so |<final|target>| = |sum of counts * final * target|
    fid = abs(complex(counts @ (run.final * run.target)))
    err = _distance(counts, run.final, run.target)
    d_a, d_s = run.encoding.info["arcsin_degree"], run.plan.rounds
    checks = [
        BoundCheck.le("final_error_le_epsilon", err, cfg.epsilon),
        BoundCheck.le("success_ge_one_minus_delta", 1.0 - cfg.delta, run.success),
        BoundCheck.eq("counted_oracle_calls_eq_4_da_ds", run.oracle_calls, 4 * d_a * d_s),
    ]
    return PrepReport(
        fidelity_to_target=fid,
        success_probability=run.success,
        oracle_calls=run.oracle_calls,
        degrees=(d_a, d_s),
        bound_checks=checks,
        info={
            "n": cfg.oracle.n,
            "m": run.m,
            "beta": BETA,
            "gamma": run.gamma_exact,
            "gamma_quantized": run.gamma_quant,
            "gamma_realized": run.gamma_realized,
            "eps_measured": run.eps_measured,
            "sigma": run.plan.sigma,
            "final_error": err,
            "predicted_success": run.plan.predicted_success(),
            "levels": run.levels,
        },
        _final=functools.partial(_state, run.value_classes, run.final),
    )


def prepare_state(cfg: PrepConfig) -> PrepReport:
    """Run the full pipeline and report the prepared state.

    The report's bound checks assert the user-facing contract: the distance
    to the normalized target is at most epsilon and the post-selection
    succeeds with probability at least 1 - delta.
    """
    return _base_report(_execute(cfg))


def verify_error_bounds(cfg: PrepConfig) -> PrepReport:
    """Run the pipeline and check every inequality of the error analysis.

    The measured error substitutes for its bound: with eps the largest
    realized per-amplitude deviation max |c~(x) - c(x)| (twice the spectral
    distance of the half-amplitude generators, which is the unit the
    analysis manipulates), the checks are |gamma~ - gamma| <= 2 eps; when
    eps <= gamma/4 also gamma~ >= gamma/2, |sqrt(gamma) - sqrt(gamma~)| <=
    eps, and the realized and final states sit within 3 eps / gamma of the
    target. The square-root bound is the reverse triangle inequality: with
    ||c||_2 = sqrt(N gamma), |sqrt(gamma) - sqrt(gamma~)| =
    | ||c||_2 - ||c~||_2 | / sqrt(N) <= ||c - c~||_2 / sqrt(N) <= eps, and a
    constant table with a constant error meets it with equality.
    """
    return _bound_report(_execute(cfg))


def _bound_report(run: _RunResult) -> PrepReport:
    report = _base_report(run)
    eps = run.eps_measured
    g = run.gamma_exact
    gt = run.gamma_realized
    bound = 3.0 * eps / g
    checks = report.bound_checks
    checks.append(BoundCheck.le("gamma_diff_le_2eps", abs(gt - g), 2.0 * eps, slack=1e-12))
    premise = BoundCheck.le("premise_eps_le_gamma_over_4", eps, g / 4.0)
    checks.append(premise)
    if premise.passed:
        checks.append(BoundCheck.le("gamma_realized_ge_half_gamma", g / 2.0, gt))
        checks.append(
            BoundCheck.le(
                "sqrt_gamma_diff_le_eps",
                abs(math.sqrt(g) - math.sqrt(gt)),
                eps,
                slack=1e-12,
            )
        )
        checks.append(
            BoundCheck.le(
                "state_dist_le_3eps_over_gamma",
                _distance(run.value_classes.counts, run.realized, run.target),
                bound,
                slack=1e-10,
            )
        )
        checks.append(
            BoundCheck.le(
                "final_dist_le_3eps_over_gamma",
                report.info["final_error"],
                bound,
                slack=1e-9,
            )
        )
    report.info["bound_3eps_over_gamma"] = bound
    return report


def grover_case(n: int, x0: int, delta: float, epsilon: float) -> PrepReport:
    """Single-marked-item search as a state-preparation instance.

    gamma equals 1/2^n, so the query count scales like sqrt(N) times the
    logarithmic factors; the report carries oracle_calls / sqrt(N) for
    scaling tables.
    """
    oracle = AmplitudeOracle.indicator(n, x0, 8)
    cfg = PrepConfig(oracle=oracle, epsilon=epsilon, delta=delta)
    report = verify_error_bounds(cfg)
    report.info["x0"] = x0
    report.info["calls_per_sqrt_n"] = report.oracle_calls / math.sqrt(2**n)
    return report


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification: the cartesian product of the listed values."""

    ns: tuple[int, ...]
    dists: tuple[str, ...]
    epsilons: tuple[float, ...]
    deltas: tuple[float, ...]

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        """Read a JSON grid.

        A spec of the wrong shape or type raises InputError: unknown keys,
        grids that are not lists or grid entries of the wrong type. Values
        of the right type that are out of range fail their grid points,
        which become error rows.
        """
        if not isinstance(d, dict):
            raise InputError("a sweep spec must be a JSON object")
        grids = {"n": _is_int, "dist": lambda v: isinstance(v, str),
                 "epsilon": _is_real, "delta": _is_real}
        unknown = sorted(set(d) - set(grids))
        if unknown:
            raise InputError(f"unknown sweep spec keys {unknown}")
        for key, entry_ok in grids.items():
            values = d.get(key, [])
            if not isinstance(values, list):
                raise InputError(f"sweep spec value {key!r} must be a list")
            bad = [v for v in values if not entry_ok(v)]
            if bad:
                raise InputError(f"sweep spec {key!r} has entries of the wrong type: {bad}")
        return cls(
            ns=tuple(d.get("n", ())),
            dists=tuple(d.get("dist", ())),
            epsilons=tuple(d.get("epsilon", ())),
            deltas=tuple(d.get("delta", ())),
        )


def sweep(spec: SweepSpec) -> list[dict]:
    """One row per grid point; failures become rows with a status message."""
    rows = []
    for n, dist, eps, delta in itertools.product(
        spec.ns, spec.dists, spec.epsilons, spec.deltas
    ):
        row = {c: "" for c in SWEEP_COLUMNS}
        row.update({"n": n, "epsilon": eps, "delta": delta, "status": "ok"})
        try:
            oracle = AmplitudeOracle.from_dist(n, 8, dist)
            cfg = PrepConfig(oracle=oracle, epsilon=eps, delta=delta)
            rep = verify_error_bounds(cfg)
            final_err = rep.info["final_error"]
            bound = rep.info["bound_3eps_over_gamma"]
            row.update(
                {
                    "m": rep.info["m"],
                    "gamma": rep.info["gamma"],
                    "arcsin_degree": rep.degrees[0],
                    "sign_degree": rep.degrees[1],
                    "oracle_calls": rep.oracle_calls,
                    "fidelity": rep.fidelity_to_target,
                    "success_prob": rep.success_probability,
                    "bound_3eps_over_gamma_lhs": final_err,
                    "bound_3eps_over_gamma_rhs": bound,
                    "pass": rep.all_passed,
                }
            )
        except QsprepError as exc:
            row["status"] = f"error: {exc}"
            row["pass"] = False
        rows.append(row)
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in SWEEP_COLUMNS})
    return buf.getvalue()
