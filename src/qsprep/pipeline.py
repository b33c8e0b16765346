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
computed classically from the exact table, so every inequality the analysis
promises is checkable per run.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .amplifier import AmplificationPlan, amplify_state, plan_amplification
from .blockenc import LevelEncoding, check_engine_size, hamiltonian_from_unitary
from .errors import InfeasibleError, InputError, QsprepError
from .oracle import MAX_BITS, AmplitudeOracle, _is_int, gamma
from .simulator import RegisterLayout, StateVector

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


@dataclass(frozen=True)
class PrepConfig:
    """Parameters of one preparation run.

    m defaults to ceil(log2(3 / (epsilon * gamma))) + 2, which keeps the
    quantization's share of the generator error budget below a quarter.
    """

    oracle: AmplitudeOracle
    epsilon: float
    delta: float
    m: int | None = None

    def __post_init__(self):
        if not _is_real(self.delta) or not 0 < self.delta < 1:
            raise InputError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not _is_real(self.epsilon) or not 0 < self.epsilon < np.inf:
            raise InputError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.m is not None and not (_is_int(self.m) and 1 <= self.m <= MAX_BITS):
            raise InputError(f"m must be an integer in 1..{MAX_BITS}, got {self.m!r}")


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
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
    final_state: StateVector
    fidelity_to_target: float
    success_probability: float
    oracle_calls: int
    degrees: tuple[int, int]
    bound_checks: list[BoundCheck] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.bound_checks)


def default_bits(epsilon: float, gamma_value: float) -> int:
    return int(np.ceil(np.log2(3.0 / (epsilon * gamma_value)))) + 2


@dataclass
class _RunResult:
    config: PrepConfig
    oracle_m: AmplitudeOracle
    encoding: LevelEncoding
    plan: AmplificationPlan
    final_state: StateVector
    success: float
    gamma_exact: float
    gamma_quant: float
    gamma_realized: float
    eps_measured: float
    realized_amplitudes: np.ndarray
    # the realized and target states as plain amplitude arrays: only their
    # distance and overlap are read
    realized_state: np.ndarray
    target: np.ndarray
    oracle_calls: int
    classes: int


def _execute(cfg: PrepConfig) -> _RunResult:
    oracle = cfg.oracle
    check_engine_size(oracle.n)
    g_exact = gamma(oracle, use_exact=True)
    if g_exact <= 0.0:
        raise InfeasibleError("gamma = 0: the amplitude table is identically zero")
    # target for the measured per-amplitude deviation max |c~ - c|
    eps_hat_target = cfg.epsilon * g_exact / 3.0
    if eps_hat_target > g_exact / 4.0:
        raise InfeasibleError(
            f"epsilon = {cfg.epsilon} is infeasible: the substituted amplitude "
            f"error {eps_hat_target:.3e} exceeds gamma/4 = {g_exact / 4:.3e}"
        )
    m = cfg.m  # a given m is checked by PrepConfig; the derived one is clamped
    if m is None:
        m = min(max(default_bits(cfg.epsilon, g_exact), 1), MAX_BITS)
    oracle_m = oracle.with_bits(m)

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
    c_q = oracle_m.quantized + 2.0 ** -(m + 1)
    # the block of an index depends only on its quantized value, so the
    # engine runs on the K distinct values (levels); inverse maps each
    # index to its level and counts[k] is the size of level k's class
    levels, inverse, counts = np.unique(c_q, return_inverse=True, return_counts=True)
    del c_q  # 8 bytes per index that nothing below reads
    size = oracle.size
    encoding = hamiltonian_from_unitary(
        np.exp(1j * np.pi * BETA * levels / 2.0),
        BETA * eps_poly / 2.0,  # generator units: BETA * amplitude / 2
        DELTA_MARGIN,
    )

    # the encoded generator is diagonal (and real), so its spectral distance
    # to the table is the largest per-index deviation
    c_level = 2.0 * encoding.diagonal.real / BETA
    c_realized = c_level[inverse]
    eps_measured = float(np.abs(c_realized - oracle.values).max())
    g_realized = float(counts @ c_level**2 / size)
    g_quant = float(counts @ levels**2 / size)

    sigma_hat = BETA * math.sqrt(g_quant) / 2.0
    plan = plan_amplification(sigma_hat, cfg.delta)

    # post-select the flag pattern, row 0 of the amplified state, per level
    state, applications = amplify_state(encoding.columns, counts, plan)
    norm = math.sqrt(counts @ np.abs(state[0]) ** 2)
    if norm < 1e-14:  # nothing flagged: the empty state, as project_measure gives
        success, data_level = 0.0, np.zeros(levels.size, dtype=complex)
    else:
        success, data_level = norm**2, state[0] / norm
    realized_norm = math.sqrt(size * g_realized)
    realized_level = c_level / realized_norm if realized_norm > 0 else np.zeros_like(c_level)
    overlap = complex(counts @ (realized_level * data_level))
    if abs(overlap) > 1e-12:  # remove the global phase
        data_level = data_level * (overlap.conjugate() / abs(overlap))
    final = StateVector(data_level[inverse], RegisterLayout.single(oracle.n, "data"))

    # each use of C or its adjoint runs every transform layer, and each layer
    # queries the controlled phase unitary and its adjoint (both select
    # branches share them); each query is an O_c pair
    oracle_calls = applications * encoding.info["cu_calls"] * 2 * 2

    return _RunResult(
        config=cfg,
        oracle_m=oracle_m,
        encoding=encoding,
        plan=plan,
        final_state=final,
        success=success,
        gamma_exact=g_exact,
        gamma_quant=g_quant,
        gamma_realized=g_realized,
        eps_measured=eps_measured,
        realized_amplitudes=c_realized,
        realized_state=realized_level.astype(complex)[inverse],
        target=(oracle.values / np.sqrt(size * g_exact)).astype(complex),
        oracle_calls=oracle_calls,
        classes=levels.size,
    )


def _base_report(run: _RunResult) -> PrepReport:
    cfg = run.config
    fid = float(abs(np.vdot(run.final_state.amplitudes, run.target)))
    err = float(np.linalg.norm(run.final_state.amplitudes - run.target))
    d_a, d_s = run.encoding.info["arcsin_degree"], run.plan.rounds
    checks = [
        BoundCheck.le("final_error_le_epsilon", err, cfg.epsilon),
        BoundCheck.le("success_ge_one_minus_delta", 1.0 - cfg.delta, run.success),
        BoundCheck.eq("counted_oracle_calls_eq_4_da_ds", run.oracle_calls, 4 * d_a * d_s),
    ]
    report = PrepReport(
        final_state=run.final_state,
        fidelity_to_target=fid,
        success_probability=run.success,
        oracle_calls=run.oracle_calls,
        degrees=(d_a, d_s),
        bound_checks=checks,
        info={
            "n": cfg.oracle.n,
            "m": run.oracle_m.m,
            "beta": BETA,
            "gamma": run.gamma_exact,
            "gamma_quantized": run.gamma_quant,
            "gamma_realized": run.gamma_realized,
            "eps_measured": run.eps_measured,
            "sigma": run.plan.sigma,
            "final_error": err,
            "predicted_success": run.plan.predicted_success(),
            "classes": run.classes,
        },
    )
    return report


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
                float(np.linalg.norm(run.realized_state - run.target)),
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


def grover_case(n: int, x0: int, delta: float, epsilon: float, m: int | None = None) -> PrepReport:
    """Single-marked-item search as a state-preparation instance.

    gamma equals 1/2^n, so the query count scales like sqrt(N) times the
    logarithmic factors; the report carries oracle_calls / sqrt(N) for
    scaling tables.
    """
    oracle = AmplitudeOracle.indicator(n, x0, m if m is not None else 8)
    cfg = PrepConfig(oracle=oracle, epsilon=epsilon, delta=delta, m=m)
    report = verify_error_bounds(cfg)
    report.info["x0"] = x0
    report.info["calls_per_sqrt_n"] = report.oracle_calls / np.sqrt(2**n)
    return report


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification: the cartesian product of the listed values."""

    ns: tuple[int, ...]
    dists: tuple[str, ...]
    epsilons: tuple[float, ...]
    deltas: tuple[float, ...]
    m: int | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        """Read a JSON grid.

        A spec of the wrong shape or type raises InputError: unknown keys,
        grids that are not lists, grid entries of the wrong type or a
        non-integer m. Values of the right type that are out of range fail
        their grid points, which become error rows.
        """
        if not isinstance(d, dict):
            raise InputError("a sweep spec must be a JSON object")
        grids = {"n": _is_int, "dist": lambda v: isinstance(v, str),
                 "epsilon": _is_real, "delta": _is_real}
        unknown = sorted(set(d) - {*grids, "m"})
        if unknown:
            raise InputError(f"unknown sweep spec keys {unknown}")
        for key, entry_ok in grids.items():
            values = d.get(key, [])
            if not isinstance(values, list):
                raise InputError(f"sweep spec value {key!r} must be a list")
            bad = [v for v in values if not entry_ok(v)]
            if bad:
                raise InputError(f"sweep spec {key!r} has entries of the wrong type: {bad}")
        if d.get("m") is not None and not _is_int(d["m"]):
            raise InputError(f"sweep spec m must be an integer, got {d['m']!r}")
        return cls(
            ns=tuple(d.get("n", ())),
            dists=tuple(d.get("dist", ())),
            epsilons=tuple(d.get("epsilon", ())),
            deltas=tuple(d.get("delta", ())),
            m=d.get("m"),
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
            bits = spec.m if spec.m is not None else 8
            oracle = AmplitudeOracle.from_dist(n, bits, dist)
            cfg = PrepConfig(oracle=oracle, epsilon=eps, delta=delta, m=spec.m)
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
