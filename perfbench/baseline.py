"""Run the benchmark over ten seeds and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

For every workload of ``BENCHMARK.json`` and every end-to-end metric, and
the raw unit and reference kernel times, it records the median over seeds
1-10, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median. It also makes
traced runs of the first three seeds per workload and records the median of
each per-layer metric. Each run lasts ``run_seconds`` of ``BENCHMARK.json``;
runs happen one after another.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
SEEDS = list(range(1, 11))
TRACED_SEEDS = SEEDS[:3]


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    record = json.loads((BENCH / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    summary = {"seeds": SEEDS, "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, s, 0) for s in SEEDS]
        first = runs[0]["record"]
        summary["env"] = first["env"]
        entry = {
            "why": first["why"],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "fail_ratio": [r["record"]["fail_ratio"] for r in runs],
            "wall_s_tail_percentile": [r["record"]["wall_s_tail_percentile"] for r in runs],
            "end_to_end": {},
        }
        for name, m in first["end_to_end"].items():
            entry["end_to_end"][name] = {
                "unit": m["unit"],
                **summarise([r["result"]["metrics"][name]["value"] for r in runs]),
            }
        entry["raw_timing"] = {
            name: {"unit": m["unit"],
                   **summarise([r["record"]["raw_timing"][name]["value"] for r in runs])}
            for name, m in first["raw_timing"].items()
        }
        print(f"{workload}: correct={entry['correct']}")
        for name, s in (entry["end_to_end"] | entry["raw_timing"]).items():
            print(f"  {name:<26} median {s['median']:.6g} {s['unit']:<6} spread {s['spread']:.4f}")
        traced = [run_once(workload, s, 1) for s in TRACED_SEEDS]
        layers = {}
        for name, m in traced[0]["result"]["metrics"].items():
            layers[name] = {"unit": m["unit"], "median": statistics.median(
                t["result"]["metrics"][name]["value"] for t in traced)}
        entry["per_layer"] = layers
        entry["traced_correct"] = all(t["result"]["correct"] for t in traced)
        for name in ("share.complete_and_phases", "share.qsvt_and_lcu",
                     "trace.self_sum_over_wall", "trace.overhead_s",
                     "amplifier.plan_amplification.distinct_ratio"):
            print(f"  {name:<44} median {layers[name]['median']:.4g}")
        summary["workloads"][workload] = entry
        sys.stdout.flush()
    (BENCH / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
