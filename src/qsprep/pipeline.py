"""End-to-end oracle state preparation, the error-bound harness, the search
special case, and parameter sweeps.

The pipeline compiles the phase unitary from the quantized amplitude table
(with the amplitudes internally rescaled by ``BETA``), extracts the generator
through the sine encoding and an arcsin transform scaled by the gain G its
encoding reports (``info["arcsin_gain"]``), and amplifies the flagged
component, BETA G / 2 times each amplitude, with a fixed-point plan of
closed-form angles. The user-facing accuracy target is met by aiming the
realized per-amplitude error at epsilon * gamma / 3; that premise is
checked against gamma / 4 before any circuit is built.

All reference quantities (gamma, the target state, the error bounds) are
computed classically from the exact table, as count-weighted sums or maxima
over its classes (a table's entries, a generated oracle's one or two
classes), so every inequality the analysis promises is checkable per run,
and an oracle with few classes costs no 2^n-sized array unless a caller
reads the prepared state.

A run has two stages. The table stage (``_TableStage``) depends on the
table's class values and counts and epsilon alone: the quantization, the
grouping into levels, the sine encoding's inputs, gamma, the measured
error, the distance to the target and the checks on them. It holds
O(levels) data. One memo keeps the stages of generated oracles and of
tables of at most ``blockenc._MEMO_MAX_LEVELS`` entries per class profile
(a table's by its values) and epsilon, so every search at one (n,
epsilon) computes its stage once, whatever its marked item, and so does
every fresh oracle of a table seen before. A table given as values also
keeps its latest stage on its oracle, so the runs of one oracle at one
epsilon (a sweep's delta rows) find it without building a key; a larger
table keeps it there alone. The amplification at delta reads the
encoding through ``hamiltonian_from_unitary`` (a memo lookup for a kept
stage of at most ``_MEMO_MAX_LEVELS`` levels), plans the rounds and
amplifies, which ``amplifier`` memoizes on (sigma, delta), and checks the
amplification's premise, so a run at a kept stage and a repeated (sigma,
delta) computes only its report. A report's ``final_state`` is built from
its own oracle's classes, its m and the realized levels when it is read.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .amplifier import AmplificationPlan, amplify_state, plan_amplification
from .blockenc import _MEMO_MAX_LEVELS, _MEMO_SIZE, LevelEncoding, hamiltonian_from_unitary
from .errors import InfeasibleError, InputError, QsprepError
from .oracle import (
    MAX_BITS,
    AmplitudeOracle,
    ValueClasses,
    _is_int,
    _is_real,
    _register_contents,
    gamma,
)
from .polyapprox import ARCSIN_ROUNDING
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
    of the amplitude error budget below a quarter.
    """

    oracle: AmplitudeOracle
    epsilon: float
    delta: float

    def __post_init__(self):
        if not isinstance(self.oracle, AmplitudeOracle):
            raise InputError(f"oracle must be an AmplitudeOracle, got {type(self.oracle).__name__}")
        if not _is_real(self.delta) or not 0 < self.delta < 1:
            raise InputError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not _is_real(self.epsilon) or not 0 < self.epsilon < np.inf:
            raise InputError(f"epsilon must be positive, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "delta", float(self.delta))


class BoundCheck(NamedTuple):
    """One checked inequality (or equality) of a report: immutable and cheap to build."""

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
    classes, taken once per class profile and epsilon in the kept table
    stage (``_TableStage``). Unread, a report holds O(levels), not O(2^n):
    its oracle's classes, the m it ran at and one real amplitude per level,
    from which ``final_state`` spells the state out.
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

        The read groups the table into its levels again and puts each
        level's amplitude at every index of the level. It raises
        DimensionError above ``oracle.MAX_TABLE_QUBITS`` data qubits, before
        any amplitude exists, and again on every later read. Once the state
        is built, what it was built from is dropped.
        """
        state = self._final()
        self._final = None
        return state


def default_bits(epsilon: float, gamma_value: float) -> int:
    # a ratio past the largest double (a table of amplitudes near 1e-160)
    # asks for far more than MAX_BITS bits either way
    return math.ceil(math.log2(min(3.0 / (epsilon * gamma_value), sys.float_info.max))) + 2


def _levels(classes: ValueClasses, m: int) -> tuple[np.ndarray, np.ndarray | slice, np.ndarray]:
    """The table's levels, each class's level, and how many indices each level holds (integers).

    The block of an index depends only on the m-bit integer q the bit oracle
    writes for it, so the engine runs on the K distinct q, ascending. Level
    k is (q_k + 1/2) / 2^m: the truncated value recentred by half a step,
    one classically-known global phase that turns the one-sided floor error
    into a symmetric one. ``level_of`` maps each class to its level, and
    ``counts[k]`` is the number of indices at level k, uncast: on ascending
    classes they are the classes' own counts, and the final-state read,
    which takes only ``level_of``, builds no array from them.
    """
    q = _register_contents(classes.values, m)
    if (q[1:] > q[:-1]).all():
        # the generated oracles' classes ascend: the map is an identity
        # slice, and a search preparation spends no array operation on it
        distinct, level_of, counts = q, slice(None), classes.counts
    elif 2**m <= 4 * q.size + 4096:
        # classes that do not ascend are a table's entries, one index each,
        # so the counts are unweighted. One bin per register content costs
        # O(2^m), a sort O(N log N) with a larger fixed cost: they break
        # even near 4 bins per index, or 4096 bins for a small table (timed
        # on a 2-vCPU x86 host)
        bins = np.bincount(q)
        distinct = np.flatnonzero(bins)
        rank = np.empty(bins.size, dtype=np.int64)  # read only at the non-empty bins
        rank[distinct] = np.arange(distinct.size)
        level_of, counts = rank[q], bins[distinct]
    else:
        distinct, level_of, counts = np.unique(q, return_inverse=True, return_counts=True)
    return (distinct + 0.5) / 2.0**m, level_of, counts


@dataclass(eq=False, slots=True)
class _TableStage:
    """What a run computes before the amplification, from the class profile and epsilon alone.

    The quantization, the grouping into levels, the sine encoding's inputs,
    gamma with its quantized and realized values, the measured error, the
    distance to the target and the checks on them (``checks``, built with
    the stage) read no delta, nor does sigma, all the amplification reads,
    nor do all but two entries of a report's ``info``, which the stage holds
    for each report to copy. A stage holds two reals per level and no array
    per index: each class's level, the level counts, the final state and the
    target at every class exist only while the stage is computed. It keeps
    the encoding's inputs, not the encoding: ``hamiltonian_from_unitary``
    keeps encodings of few levels in its memo, and builds one of more levels
    again on each call. Nothing changes a stage once built (it is not
    frozen only because a frozen dataclass takes twice as long to build, a
    few us of a search run).
    """

    epsilon: float
    m: int
    sines: np.ndarray  # sin(pi BETA level / 2) at each level, the encoding's input
    # the encoding's error in its units of arcsin / pi, BETA / 2 times the amplitude's
    arcsin_epsilon: float
    gamma_exact: float
    gamma_quant: float
    gamma_realized: float
    # C|Psi>'s flagged singular value, the norm of the encoded diagonal over
    # sqrt(N): BETA G / 2 times sqrt(gamma_realized), G the encoding's gain,
    # up to rounding
    sigma: float
    eps_measured: float
    # the realized state's amplitude at each level; post-selection leaves
    # the realized state, so it is also the final state's
    realized_level: np.ndarray
    fidelity: float
    final_error: float
    # a report's info in its order, but for the two entries that its plan
    # at delta gives, "sigma" and "predicted_success", which are None here
    info: dict
    # 3 eps / gamma, the error analysis' bound on the distance to the target
    bound: float = field(init=False)
    # final_error_le_epsilon, then the error analysis' checks
    checks: tuple[BoundCheck, ...] = field(init=False)

    def __post_init__(self):
        eps, g, gt = self.eps_measured, self.gamma_exact, self.gamma_realized
        self.bound = 3.0 * eps / g
        # the gamma checks' slacks scale with gamma: at large n eps is under
        # 1e-13, where an absolute 1e-12 would pass many times the bound
        checks = [
            BoundCheck.le("final_error_le_epsilon", self.final_error, self.epsilon),
            BoundCheck.le("gamma_diff_le_2eps", abs(gt - g), 2.0 * eps, slack=1e-12 * max(g, gt)),
            BoundCheck.le("eps_measured_le_eps_gamma_over_3", eps, self.epsilon * g / 3.0),
            BoundCheck.le("premise_eps_le_gamma_over_4", eps, g / 4.0),
        ]
        if checks[-1].passed:
            checks += [
                BoundCheck.le("gamma_realized_ge_half_gamma", g / 2.0, gt),
                BoundCheck.le("sqrt_gamma_diff_le_eps", abs(math.sqrt(g) - math.sqrt(gt)), eps,
                              slack=1e-12 * math.sqrt(max(g, gt))),
                BoundCheck.le("state_dist_le_3eps_over_gamma", self.final_error, self.bound,
                              slack=1e-10),
                BoundCheck.le("final_dist_le_3eps_over_gamma", self.final_error, self.bound,
                              slack=1e-9),
            ]
        self.checks = tuple(checks)


# The table stages of generated oracles and of tables of at most
# _MEMO_MAX_LEVELS entries, keyed by _stage_key, least recently used first:
# at most _MEMO_SIZE, each of at most _MEMO_MAX_LEVELS levels, two reals per
# level, under a key of at most 8 B per level, so at most 6 MiB in all
_STAGES: dict[tuple, _TableStage] = {}


def _stage_key(classes: ValueClasses, epsilon: float) -> tuple:
    # what a stage reads: the class profile and epsilon. A table's counts
    # are all one, so its values' bytes say the whole profile
    if classes.singles is None:
        return (classes.values.tobytes(), epsilon)
    return (classes.values.tobytes(), classes.counts.tobytes(), epsilon)


def _table_stage(oracle: AmplitudeOracle, epsilon: float) -> tuple[_TableStage, LevelEncoding]:
    """The stage of the oracle's table at epsilon, and the sine encoding a run at it amplifies.

    A stage reads the classes' values and counts and epsilon, never which
    index is in which class. So it is looked up in ``_STAGES`` by its class
    profile and epsilon: every search at one (n, epsilon), whatever its
    marked item, shares one stage, and so do the oracles of one table of at
    most ``_MEMO_MAX_LEVELS`` entries, keyed by its values' bytes (32 KB at
    most), the encoding memo's own bound. A table given as values also
    keeps its one latest stage in its ``__dict__`` beside ``classes`` and
    ``values``, which it reads first, so the rows of a sweep that differ
    only in delta find it without building a key. A larger table keeps its
    stage there alone (a key of its bytes would copy and hash the whole
    table), and its kept stage is dropped before a new one is computed, so
    two never coexist. A stage that raises is kept nowhere: the next call
    raises again. Every call reads its encoding from one call of
    ``hamiltonian_from_unitary``, a memo lookup when the stage has at most
    ``_MEMO_MAX_LEVELS`` levels, so each run's degree comes from an encoding
    call of its own.
    """
    classes = oracle.classes
    table = classes.singles is None
    if table:
        stage = oracle.__dict__.get("_stage")
        if stage is not None and stage.epsilon == epsilon:
            return stage, hamiltonian_from_unitary(stage.sines, stage.arcsin_epsilon, DELTA_MARGIN)
        # neither this frame nor the oracle holds the old stage while the new one is computed
        del stage
        oracle.__dict__["_stage"] = None
    if table and classes.values.size > _MEMO_MAX_LEVELS:
        stage, encoding = _new_stage(oracle, epsilon)
    else:
        key = _stage_key(classes, epsilon)
        # popped and put back, so the dict's order is least recently used first
        stage = _STAGES.pop(key, None)
        if stage is None:
            stage, encoding = _new_stage(oracle, epsilon)
        else:
            encoding = hamiltonian_from_unitary(stage.sines, stage.arcsin_epsilon, DELTA_MARGIN)
        _STAGES[key] = stage
        if len(_STAGES) > _MEMO_SIZE:
            del _STAGES[next(iter(_STAGES))]
    if table:
        oracle.__dict__["_stage"] = stage
    return stage, encoding


def _new_stage(oracle: AmplitudeOracle, epsilon: float) -> tuple[_TableStage, LevelEncoding]:
    # a table is its own classes; a generated oracle knows its few
    classes = oracle.classes
    g_exact = gamma(oracle)
    if g_exact <= 0.0:
        top = float(classes.values.max())
        if top > 0.0:
            raise InfeasibleError(
                f"gamma underflows to 0 in double precision: the largest amplitude is {top:.3e}"
            )
        raise InfeasibleError("gamma = 0: the amplitude table is identically zero")
    # target for the measured per-amplitude deviation max |c~ - c|
    eps_hat_target = epsilon * g_exact / 3.0
    if eps_hat_target > g_exact / 4.0:
        raise InfeasibleError(
            f"epsilon = {epsilon} is infeasible: the substituted amplitude "
            f"error {eps_hat_target:.3e} exceeds gamma/4 = {g_exact / 4:.3e}"
        )
    # epsilon <= 3/4 here, so the derived m is at least 4
    m = min(default_bits(epsilon, g_exact), MAX_BITS)

    # quantization's share of the amplitude-error budget
    q_part = 2.0**-m
    # with m capped, the quantization must leave the polynomial its least
    # share: a sixteenth of the aim, and no less than the amplitude whose
    # arcsin error is the least the arcsin cut takes, 2 ARCSIN_ROUNDING
    least = max(eps_hat_target / 16.0, 2.0 * ARCSIN_ROUNDING / (BETA / 2.0))
    if eps_hat_target - q_part < least:
        raise InfeasibleError(
            f"m = {m} value bits leave no room in the error budget; of the aim "
            f"{eps_hat_target:.3e}, quantization alone takes {q_part:.3e}, which "
            f"leaves the polynomial less than its least share {least:.3e}"
        )
    # the polynomial gets half a step, the recentred quantization's own
    # worst case, so the two together miss an amplitude by at most a step
    eps_poly = max(min(eps_hat_target - q_part, q_part / 2.0), least)

    levels, level_of, counts = _levels(classes, m)
    counts = counts.astype(float)  # cast once for the two sums they weight
    size = oracle.size
    # the oracle's diagonal is e^{i pi BETA levels / 2}: its generator, which
    # the arcsin transform returns, is BETA / 2 times the levels
    sines = np.sin(np.pi * BETA * levels / 2.0)
    arcsin_epsilon = BETA / 2.0 * eps_poly
    encoding = hamiltonian_from_unitary(sines, arcsin_epsilon, DELTA_MARGIN)

    # the encoded generator, G times the generator at the encoding's gain G,
    # is diagonal (and real), so its spectral distance to the table is the
    # largest per-index deviation
    c_level = encoding.diagonal / (BETA * encoding.info["arcsin_gain"] / 2.0)
    deviation = c_level[level_of] - classes.values
    eps_measured = float(np.abs(deviation, out=deviation).max())
    del deviation
    # the flagged sum S = sum of n_k c~_k^2 gives gamma~ = S / N; sigma is
    # read from the encoded diagonal itself, the amplitude C carries: it is
    # BETA G / 2 times sqrt(gamma~) but for rounding
    g_realized = float(counts @ c_level**2) / size
    sigma = math.sqrt(float(counts @ encoding.diagonal**2)) / math.sqrt(size)
    g_quant = float(counts @ levels**2) / size
    del counts  # N doubles on an ascending table, dropped before the two states exist
    realized_level = c_level / math.sqrt(size * g_realized)

    # the final state and the target, each real and at one index of every
    # class; each class's level is dropped before the target is built
    final = realized_level[level_of]
    del level_of
    target = classes.values / math.sqrt(size * g_exact)
    # both states are real, so <final|target> = sum of counts * final * target
    fidelity = abs(classes.total(final * target))
    final_error = math.sqrt(classes.total((final - target) ** 2))

    stage = _TableStage(
        epsilon=epsilon,
        m=m,
        sines=sines,
        arcsin_epsilon=arcsin_epsilon,
        gamma_exact=g_exact,
        gamma_quant=g_quant,
        gamma_realized=g_realized,
        sigma=sigma,
        eps_measured=eps_measured,
        realized_level=realized_level,
        fidelity=fidelity,
        final_error=final_error,
        info={
            "n": oracle.n,
            "m": m,
            "beta": BETA,
            "gamma": g_exact,
            "gamma_quantized": g_quant,
            "gamma_realized": g_realized,
            "eps_measured": eps_measured,
            "sigma": None,
            "final_error": final_error,
            "predicted_success": None,
            "levels": levels.size,
            "arcsin_cut": encoding.info["arcsin_cut"],
            "arcsin_l1": encoding.info["arcsin_l1"],
            "arcsin_gain": encoding.info["arcsin_gain"],
        },
    )
    return stage, encoding


def _final_state(classes: ValueClasses, m: int, realized_level: np.ndarray) -> StateVector:
    """The final state at every index, from the table grouped into its levels again."""
    level_of = _levels(classes, m)[1]
    return StateVector(classes.expand(realized_level[level_of]))


def _run(cfg: PrepConfig, bounds: bool) -> PrepReport:
    """The table stage, then the amplification at delta; ``bounds`` adds the analysis' checks."""
    stage, encoding = _table_stage(cfg.oracle, cfg.epsilon)
    # the flagged amplitude per unit amplitude, G the encoding's gain
    unit = BETA * encoding.info["arcsin_gain"] / 2.0
    plan = plan_amplification(unit * math.sqrt(stage.gamma_quant), cfg.delta)
    # the L rounds multiply the flagged part of C|Psi>, the encoded diagonal,
    # by one number, so post-selecting the flag leaves the realized state
    amplitude, applications = amplify_state(stage.sigma, plan)
    # each use of C or its adjoint runs every transform layer, and each layer
    # queries the controlled phase unitary and its adjoint (both select
    # branches share them); each query is an O_c pair
    oracle_calls = applications * encoding.info["cu_calls"] * 2 * 2
    return _report(cfg, stage, encoding, plan, abs(amplitude) ** 2, oracle_calls, bounds)


def _report(cfg: PrepConfig, stage: _TableStage, encoding: LevelEncoding, plan: AmplificationPlan,
            success: float, oracle_calls: int, bounds: bool) -> PrepReport:
    """A report with its own check list and ``info``.

    It is read from the stage, which holds the checks and the ``info``
    entries that read no delta (the encoding's cut, the Chebyshev l1 norm
    of the scaled target the phase iteration was given and its gain among
    them), the encoding's degree d_a, and what the amplification at delta
    gave: its plan, its success and its counted calls. Only the four
    checks of the amplification and the plan's two entries are built here.
    """
    d_a, d_s, sigma = encoding.info["arcsin_degree"], plan.rounds, stage.sigma
    first, *analysis = stage.checks
    checks = [
        first,
        BoundCheck.le("success_ge_one_minus_delta", 1.0 - cfg.delta, success),
        BoundCheck.eq("counted_oracle_calls_eq_4_da_ds", oracle_calls, 4 * d_a * d_s),
        # the amplification's own premise: the fixed-point guarantee holds for
        # a sigma at or above the band edge, and there the success is the
        # plan's closed form
        BoundCheck.le("sigma_ge_band_edge", plan.band_edge, sigma),
        BoundCheck.le(
            "success_gap_to_predicted_le_1e-10",
            abs(success - plan.predicted_success(sigma)),
            1e-10,
        ),
    ]
    info = stage.info.copy()
    info["sigma"] = plan.sigma
    info["predicted_success"] = plan.predicted_success()
    if bounds:
        checks += analysis
        info["bound_3eps_over_gamma"] = stage.bound
    return PrepReport(
        fidelity_to_target=stage.fidelity,
        success_probability=success,
        oracle_calls=oracle_calls,
        degrees=(d_a, d_s),
        bound_checks=checks,
        info=info,
        _final=functools.partial(_final_state, cfg.oracle.classes, stage.m, stage.realized_level),
    )


def prepare_state(cfg: PrepConfig) -> PrepReport:
    """Run the full pipeline and report the prepared state.

    The report's bound checks assert the user-facing contract: the distance
    to the normalized target is at most epsilon and the post-selection
    succeeds with probability at least 1 - delta. They also check the
    amplification's premise: the sigma it amplified is at or above the
    plan's band edge, and the success is ``predicted_success(sigma)`` within
    1e-10.
    """
    return _run(cfg, bounds=False)


def verify_error_bounds(cfg: PrepConfig) -> PrepReport:
    """Run the pipeline and check every inequality of the error analysis.

    The measured error substitutes for its bound: with eps the largest
    realized per-amplitude deviation max |c~(x) - c(x)| (twice the spectral
    distance of the half-amplitude generators, which is the unit the
    analysis manipulates), the checks are |gamma~ - gamma| <= 2 eps, the
    run's own aim eps <= epsilon gamma / 3, and when eps <= gamma/4 also
    gamma~ >= gamma/2, |sqrt(gamma) - sqrt(gamma~)| <= eps, and the realized
    state, which post-selection leaves as the final state, sits within 3 eps
    / gamma of the target (its two checks read the one distance). The
    square-root bound is the reverse triangle inequality: with ||c||_2 =
    sqrt(N gamma), |sqrt(gamma) - sqrt(gamma~)| = | ||c||_2 - ||c~||_2 | /
    sqrt(N) <= ||c - c~||_2 / sqrt(N) <= eps, and a constant table with a
    constant error meets it with equality.
    """
    return _run(cfg, bounds=True)


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
    """One row per grid point; failures become rows with a status message.

    Each (n, dist) oracle is built once and held while its rows run, so the
    rows that share it and an epsilon share its table stage and differ only
    in the amplification at their delta; the rows of generated oracles of
    one class profile (every ``indicator`` at one n) share it too, and so
    do the rows of a table of at most ``_MEMO_MAX_LEVELS`` entries that an
    earlier sweep in the process ran. Rows that repeat a (sigma, delta)
    reuse its plan and amplitude. Every row still calls the module's
    ``verify_error_bounds`` once, in grid order; a dist that fails to parse
    gives one error row per (epsilon, delta).
    """
    rows = []
    for n, dist in itertools.product(spec.ns, spec.dists):
        try:
            oracle, failure = AmplitudeOracle.from_dist(n, 8, dist), None
        except QsprepError as exc:
            oracle, failure = None, {"status": f"error: {exc}", "pass": False}
        for eps, delta in itertools.product(spec.epsilons, spec.deltas):
            row = {c: "" for c in SWEEP_COLUMNS}
            row.update({"n": n, "epsilon": eps, "delta": delta, "status": "ok"})
            row.update(failure or _sweep_fields(oracle, eps, delta))
            rows.append(row)
    return rows


def _sweep_fields(oracle: AmplitudeOracle, eps: float, delta: float) -> dict:
    try:
        rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=eps, delta=delta))
    except QsprepError as exc:
        return {"status": f"error: {exc}", "pass": False}
    return {
        "m": rep.info["m"],
        "gamma": rep.info["gamma"],
        "arcsin_degree": rep.degrees[0],
        "sign_degree": rep.degrees[1],
        "oracle_calls": rep.oracle_calls,
        "fidelity": rep.fidelity_to_target,
        "success_prob": rep.success_probability,
        "bound_3eps_over_gamma_lhs": rep.info["final_error"],
        "bound_3eps_over_gamma_rhs": rep.info["bound_3eps_over_gamma"],
        "pass": rep.all_passed,
    }


def sweep_to_csv(rows: list[dict]) -> str:
    """The rows as CSV under a header of ``SWEEP_COLUMNS``.

    Each row's values follow in that order, empty where a row has no value
    for a column.
    """
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows([row.get(c, "") for c in SWEEP_COLUMNS] for row in rows)
    return buf.getvalue()
