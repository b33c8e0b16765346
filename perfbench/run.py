"""qsprep benchmark: one workload, closed loop, one unit at a time.

    python3 perfbench/run.py --workload {search,dense,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Full
records (environment, unit times, spans) go to ``perfbench/out/``.

Exit codes: 0 with a result line; 2 when the benchmark cannot run here (no
library source, BLAS threads above the CPU count); 3 when a determinism
check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 3
TAIL_BEYOND = 10
# oracle_calls is the mean over the first units only, so that it is the
# same in every run of a seed however many units the run gets through
ORACLE_PREFIX = 20
# a unit's time is set against the reference kernel times of the units up
# to this many places before and after it (see workloads.py)
REF_WINDOW = 3


class BenchError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("search", "dense", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and build inputs, print the set-up time as JSON")
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Default OpenBLAS to one thread per CPU; refuse a request above that."""
    cpus = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        val = os.environ.get(var)
        if val and int(val) > cpus:
            raise BenchError(f"{var}={val} exceeds nproc={cpus}")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(cpus))


def import_library():
    """Import qsprep from this checkout's ``src`` and the workload module."""
    if not (SRC / "qsprep" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'qsprep'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import qsprep
    import workloads

    if Path(qsprep.__file__).resolve().parent != SRC / "qsprep":
        raise BenchError(f"imported qsprep from {qsprep.__file__}, not from {SRC}")
    return workloads


def blas_threads() -> dict:
    """Threads each bundled OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib_path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(lib_path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    found[Path(lib_path).name] = fn()
                    break
    return found


def environment() -> dict:
    import platform

    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "openblas_build": blas.get("openblas configuration", blas.get("name")),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def source_sha256() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted([*(SRC / "qsprep").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup_probes(args, inputs_hash: str) -> list[float]:
    """Set-up time of fresh processes; each must build the same inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["inputs_sha256"] != inputs_hash:
            raise BenchError("a fresh process generated different inputs from the same seed", 3)
        times.append(probe["setup_s"])
    return times


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct, beyond).

    With too few samples for that, the maximum is reported with 0 beyond.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def unit_per_ref(units: list[float], refs: list[float]) -> list[float]:
    """Each unit's time over the mean reference kernel time around it.

    A kernel sample (~20 ms) lands wholly in a fast or a slow spell of the
    host, so a single sample is a poor gauge; the mean over the REF_WINDOW
    units on either side follows the host's speed over the seconds the unit
    itself spans.
    """
    k = REF_WINDOW
    return [u / statistics.fmean(refs[max(0, i - k):i + k + 1]) for i, u in enumerate(units)]


def check_determinism(args, inputs_hash: str, prints: dict) -> None:
    """Compare unit fingerprints with earlier runs of this seed and source."""
    path = OUT / "determinism" / f"{args.workload}-seed{args.seed}.json"
    src = source_sha256()
    record = {"source_sha256": src, "inputs_sha256": inputs_hash, "units": {}}
    if path.is_file():
        old = json.loads(path.read_text())
        if old.get("source_sha256") == src:
            if old["inputs_sha256"] != inputs_hash:
                raise BenchError(f"seed {args.seed} generated different inputs than in an earlier run", 3)
            for key, fp in prints.items():
                if key in old["units"] and old["units"][key] != fp:
                    raise BenchError(
                        f"unit {key} of seed {args.seed}: {fp} now, {old['units'][key]} before", 3)
            record = old
    record["units"].update(prints)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))


def run(args) -> dict:
    cap_blas_threads()
    workloads = import_library()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    own_setup_s = time.perf_counter() - T_START
    inputs_hash = workloads.inputs_sha256(inputs)
    if args.setup_probe:
        return {"setup_s": own_setup_s, "inputs_sha256": inputs_hash}

    env = environment()
    over = {lib: n for lib, n in env["blas_threads"].items() if n > env["nproc"]}
    if over:
        raise BenchError(f"BLAS threads {over} exceed nproc={env['nproc']}")
    setup_times = [] if args.trace else setup_probes(args, inputs_hash)

    OUT.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()

    results, traced, untraced, refs, layer_rows, problems = [], [], [], [], [], []
    t_measure = None
    for i, inp in enumerate(inputs):
        # unit 0 warms lazy initialisation and stays out of the timings;
        # in a traced run every other measured unit runs untraced
        trace_this = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        workload.reference()
        ref = time.perf_counter() - t0
        if trace_this:
            tracer.unit = i
            tracer.install()
        t0 = time.perf_counter()
        wall = None
        try:
            out = workload.call(inp, OUT)
            wall = time.perf_counter() - t0
            res = workload.check(inp, out)
        except Exception:
            if wall is None:
                wall = time.perf_counter() - t0
            res = workloads.UnitResult(failed_rows=1, problems=[traceback.format_exc(limit=4)])
        if trace_this:
            tracer.uninstall()
            numbers, violations = spans.unit_layer_numbers(tracer, i, wall)
            layer_rows.append(numbers)
            res.problems += violations
        results.append(res)
        problems += [f"unit {i}: {p}" for p in res.problems]
        if i == 0:
            t_measure = time.perf_counter()
            continue
        if trace_this:
            traced.append(wall)
        else:
            untraced.append(wall)
            refs.append(ref)
        # a traced run needs one unit of each kind for the overhead, and
        # oracle_calls needs the fixed prefix of units
        if (time.perf_counter() - t_measure >= args.seconds and (tracer is None or untraced)
                and len(results) >= ORACLE_PREFIX):
            break

    prints = {str(i): r.fingerprint() for i, r in enumerate(results)}
    check_determinism(args, inputs_hash, prints)

    rows = sum(r.rows for r in results)
    failed_rows = sum(r.failed_rows for r in results)
    tail_s, tail_pct, tail_beyond = tail(untraced)
    per_ref = unit_per_ref(untraced, refs)
    raw = {
        "wall_s": (statistics.median(untraced), "s"),
        "wall_s_tail": (tail_s, "s"),
        "ref_s": (statistics.fmean(refs), "s"),
    }
    e2e = {
        "setup_s": (statistics.median(setup_times) if setup_times else own_setup_s, "s"),
        "wall_per_ref": (statistics.fmean(per_ref), "ratio"),
        "wall_per_ref_tail": (tail(per_ref)[0], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_ratio": (1.0 - failed_rows / rows, "ratio"),
        "oracle_calls": (statistics.mean(r.oracle_calls for r in results[:ORACLE_PREFIX]), "count"),
        "final_error_over_eps_max": (max(r.final_error_over_eps for r in results), "ratio"),
        "success_min": (min(r.success_min for r in results), "prob"),
    }
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "inputs_sha256": inputs_hash,
        "units_measured": len(untraced),
        "unit_wall_s": untraced,
        "traced_unit_wall_s": traced,
        "setup_s_samples": setup_times,
        "ref_s_samples": refs,
        "wall_s_tail_percentile": tail_pct,
        "wall_s_tail_beyond": tail_beyond,
        "fail_ratio": failed_rows / rows,
        "rows": rows,
        "problems": problems,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "raw_timing": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    metrics = record["end_to_end"]
    if tracer is not None:
        layers = spans.median_numbers(layer_rows)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = {n: {"value": v, "unit": spans.unit_of(n)} for n, v in layers.items()}
        record["per_layer"] = metrics
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.to_json()))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"units {len(untraced)} measured untraced after 1 warm-up; wall_s_tail is p{tail_pct:.1f} "
          f"with {tail_beyond} samples beyond it; rows {rows}, fail_ratio {failed_rows / rows:.4f}")
    for name, m in (record["end_to_end"] | record["raw_timing"]).items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    if tracer is not None:
        print(f"per-layer medians over {len(traced)} traced units; spans in {OUT}")
    for p in problems[:20]:
        print(f"problem: {p}")
    failed_units = sum(1 for r in results if r.problems)
    return {"correct": not problems, "attempted": len(results), "failed": failed_units,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        out = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return exc.code
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
