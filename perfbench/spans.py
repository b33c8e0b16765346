"""In-memory spans around the calls into each qsprep layer, taken from outside.

The tracer wraps the public functions listed in ``INSTRUMENTED`` by
replacing every module attribute under ``qsprep`` that is bound to the
original function: the defining module (so internal calls are seen) and
each module that imported the name. The library source is not touched and
``uninstall`` restores every binding.

A span holds its name, start, end, parent span and unit id, plus a few
attributes read from the call (degrees, dimensions, input keys). Self time
is a span's duration minus its children's; calls never overlap, so the
children's intervals are disjoint.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

# (module under qsprep, function) pairs; the layer is the module
INSTRUMENTED = [
    ("pipeline", "grover_case"),
    ("pipeline", "verify_error_bounds"),
    ("pipeline", "sweep"),
    ("pipeline", "sweep_to_csv"),
    ("cli", "main"),
    ("oracle", "target_state"),
    ("oracle", "gamma"),
    ("polyapprox", "arcsin_taylor"),
    ("polyapprox", "chebyshev_economize"),
    ("polyapprox", "sign_approx"),
    ("polyapprox", "complete_to_complex"),
    ("phases", "find_phases"),
    ("blockenc", "hamiltonian_from_unitary"),
    ("blockenc", "sine_block_encoding"),
    ("blockenc", "lcu_real_part"),
    ("blockenc", "qsvt_circuit"),
    ("blockenc", "extract_block"),
    ("amplifier", "plan_amplification"),
    ("amplifier", "amplify"),
    ("amplifier", "build_projectors"),
    ("simulator", "project_measure"),
    ("simulator", "spectral_norm"),
]

COMPLEX_BYTES = 16


def _input_key(args, kwargs) -> str:
    return repr((tuple(float(a) for a in args), sorted(kwargs.items())))


def _qsvt_attrs(args, kwargs, result) -> dict:
    dim = int(args[0].unitary.dim)
    products = len(args[1])  # one dense dim x dim product per angle
    return {
        "dim": dim,
        "gflop": 8.0 * dim**3 * products / 1e9,
        # each product reads two dim x dim complex operands and writes one
        "gb_moved": 3.0 * COMPLEX_BYTES * dim**2 * products / 1e9,
    }


# attributes recorded per call, read from the arguments and the result
ATTRS = {
    "polyapprox.complete_to_complex": lambda a, k, r: {"degree": r.degree},
    "phases.find_phases": lambda a, k, r: {"degree": len(r)},
    "amplifier.plan_amplification": lambda a, k, r: {"rounds": r.rounds, "key": _input_key(a, k)},
    "polyapprox.arcsin_taylor": lambda a, k, r: {"key": _input_key(a, k)},
    "blockenc.hamiltonian_from_unitary": lambda a, k, r: {"arcsin_degree": r.info["arcsin_degree"]},
    "blockenc.qsvt_circuit": _qsvt_attrs,
    "pipeline.verify_error_bounds": lambda a, k, r: {"oracle_calls": r.oracle_calls},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    unit: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans, tagged with ``unit``, while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = Span(name, 0.0, parent, self.unit)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "qsprep" or key.startswith("qsprep."))]
        for mod_name, fn_name in INSTRUMENTED:
            original = getattr(importlib.import_module(f"qsprep.{mod_name}"), fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def unit_spans(self, unit: int) -> list[Span]:
        return [s for s in self.spans if s.unit == unit]

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "unit": s.unit, "self_s": s.self_s, **s.attrs}
            for s in self.spans
        ]


def descendants(spans: list[Span], all_spans: list[Span], root: int) -> list[Span]:
    """Spans below ``all_spans[root]``, searched within ``spans``."""
    out = []
    for s in spans:
        p = s.parent
        while p is not None and p != root:
            p = all_spans[p].parent
        if p == root:
            out.append(s)
    return out


def unit_layer_numbers(tracer: Tracer, unit: int, wall_s: float) -> tuple[dict, list[str]]:
    """Per-layer numbers of one traced unit and any accounting violations."""
    spans = tracer.unit_spans(unit)
    out: dict[str, float] = {}
    for mod_name, fn_name in INSTRUMENTED:
        name = f"{mod_name}.{fn_name}"
        mine = [s for s in spans if s.name == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.self_s"] = sum(s.self_s for s in mine)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def distinct_ratio(name):
        keys = [s.attrs["key"] for s in spans if s.name == name and "key" in s.attrs]
        return len(set(keys)) / len(keys) if keys else 1.0

    out["polyapprox.complete_to_complex.degree"] = attr_sum("polyapprox.complete_to_complex", "degree")
    out["phases.find_phases.degree"] = attr_sum("phases.find_phases", "degree")
    out["amplifier.plan_amplification.rounds"] = attr_sum("amplifier.plan_amplification", "rounds")
    out["blockenc.hamiltonian_from_unitary.arcsin_degree"] = attr_sum(
        "blockenc.hamiltonian_from_unitary", "arcsin_degree")
    qsvt = [s for s in spans if s.name == "blockenc.qsvt_circuit"]
    out["blockenc.qsvt_circuit.dim"] = max((s.attrs.get("dim", 0) for s in qsvt), default=0)
    gflop = attr_sum("blockenc.qsvt_circuit", "gflop")
    qsvt_self = sum(s.self_s for s in qsvt)
    out["blockenc.qsvt_circuit.gflop"] = gflop
    out["blockenc.qsvt_circuit.gflop_per_s"] = gflop / qsvt_self if qsvt_self > 0 else 0.0
    out["blockenc.qsvt_circuit.gb_moved_computed"] = attr_sum("blockenc.qsvt_circuit", "gb_moved")
    out["amplifier.plan_amplification.distinct_ratio"] = distinct_ratio("amplifier.plan_amplification")
    out["polyapprox.arcsin_taylor.distinct_ratio"] = distinct_ratio("polyapprox.arcsin_taylor")
    out["share.complete_and_phases"] = (
        out["polyapprox.complete_to_complex.self_s"] + out["phases.find_phases.self_s"]) / wall_s
    out["share.qsvt_and_lcu"] = (
        out["blockenc.qsvt_circuit.self_s"] + out["blockenc.lcu_real_part.self_s"]) / wall_s
    out["trace.self_sum_over_wall"] = sum(s.self_s for s in spans) / wall_s
    out["trace.spans"] = len(spans)

    # the reported query count must equal 4 d_a d_s of the traced degrees
    violations = []
    for i, s in enumerate(tracer.spans):
        if s.unit != unit or s.name != "pipeline.verify_error_bounds" or "oracle_calls" not in s.attrs:
            continue
        below = descendants(spans, tracer.spans, i)
        d_a = [b.attrs["arcsin_degree"] for b in below if b.name == "blockenc.hamiltonian_from_unitary"]
        d_s = [b.attrs["rounds"] for b in below if b.name == "amplifier.plan_amplification"]
        if len(d_a) != 1 or len(d_s) != 1 or s.attrs["oracle_calls"] != 4 * d_a[0] * d_s[0]:
            violations.append(
                f"unit {unit}: oracle_calls {s.attrs['oracle_calls']} != 4 * {d_a} * {d_s}")
    return out, violations


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith((".calls", "degree", ".rounds", ".dim", ".spans")):
        return "count"
    if name.endswith((".gflop",)):
        return "GFLOP"
    if name.endswith(".gflop_per_s"):
        return "GFLOP/s"
    if name.endswith(".gb_moved_computed"):
        return "GB"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def median_numbers(per_unit: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in per_unit) for k in per_unit[0]}
