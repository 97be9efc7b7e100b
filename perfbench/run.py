"""Benchmark of inductionfd: time to solution at a checked accuracy.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exp2-study --seed 1 --seconds 35 --trace 0

One process, one caller, closed loop: a first job, untimed, warms caches
and records its set-up calls.  Then the workload's job (a study, a run
or a CLI call) runs again as soon as the previous one returns, for
``--seconds``; after each job the recorded set-up calls are replayed
and timed.  Every job's output is checked; a job that raises, exits
non-zero or fails a check counts all its solver runs as failed, and the
loop goes on.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace
1`` alternates traced and untraced jobs and reports per-layer metrics
from spans recorded at each module's public functions, plus the tracing
overhead.  The last line of standard output is a JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (and, when traced, every span) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

#: BLAS/OpenMP pools pinned to one thread: the kernels are elementwise
#: numpy, and one thread keeps a 2-core machine quiet.  Set before numpy loads.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: the benchmark's contract: workload notes, metric names, units and bounds
SPEC_FILE = ROOT / "BENCHMARK.json"
#: reported for the reader next to the gated metrics, never gated themselves
EXTRA_UNITS = {"failed_frac": "1", "error_pct.sbp2": "%", "error_pct.sbp4": "%",
               "rate.sbp2": "order", "rate.sbp4": "order", "overshoot": "1"}


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def manifest() -> dict:
    import numpy

    import inductionfd
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inductionfd": inductionfd.__version__,
        "git_revision": git_revision(),
        "thread_env": THREAD_ENV,
        "counts": "induction.rhs_bytes_computed and rhs_flops_computed are computed "
                  "from array sizes and stencil widths, not measured",
        "roofline": "none claimed: every working set here fits in the 300 MiB L3 of "
                    "the reference machine, so no DRAM bandwidth bound applies",
    }


#: set-ups replayed after each round of jobs; setup_s is their median
SETUP_REPEATS = 4


def run_job(workload, scratch: Path, tracer=None, capture=False) -> dict:
    """Run one job, time it, check its output; never raises."""
    restore = tracer.install() if tracer is not None else None
    first = len(tracer.start) if tracer is not None else 0
    t0 = time.perf_counter()
    try:
        try:
            with tracer.span("bench.job") if tracer is not None else nullcontext():
                out = workload.job(scratch, capture)
        finally:
            wall = time.perf_counter() - t0
            if restore is not None:
                restore()
        values, problems = workload.check(out)
    except Exception as exc:  # a failed job is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        values, problems = {}, [f"{type(exc).__name__}: {exc}"]
    for problem in problems:
        print(f"{workload.name}: FAILED CHECK: {problem}", file=sys.stderr)
    return {"wall_s": wall, "traced": tracer is not None,
            "spans": (first, len(tracer.start)) if tracer is not None else None,
            "values": values, "problems": problems}


def measure(workload, seconds: float, trace: bool, seed: int, scratch: Path):
    """Warm up, then run jobs in a closed loop for ``seconds``.

    The warm-up job records its ``assemble`` calls; they are replayed
    ``SETUP_REPEATS`` times after each round of the loop, so the set-up
    samples spread over the whole run like the jobs do.  A round (one job,
    or one untraced and one traced job when tracing) is started only while
    it is expected to end in time, judged by the longest round so far; at
    least one round always runs.
    """
    from tracing import SetupRecorder, Tracer

    setup = SetupRecorder()
    restore = setup.install()
    try:
        jobs = [run_job(workload, scratch, capture=True)]
    finally:
        restore()
    setup_times = []
    tracer = Tracer() if trace else None
    rng = random.Random(seed)
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        order = [None, tracer] if trace else [None]
        rng.shuffle(order)
        for t in order:
            jobs.append(run_job(workload, scratch, tracer=t))
        setup_times += setup.replay(SETUP_REPEATS)
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now - start + longest > seconds:
            break
    return jobs, setup_times, tracer


def median(values) -> float:
    values = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def summarize(workload, jobs, setup_times, tracer, layer_names) -> dict:
    """Metrics from the timed jobs that passed their checks.

    The warm-up job counts only in ``attempted`` and ``failed``.
    """
    ok = [j for j in jobs if not j["problems"]]
    timed = [j for j in jobs[1:] if not j["problems"]]
    plain = [j for j in timed if not j["traced"]]
    attempted = len(jobs) * workload.runs
    failed = sum(workload.runs for j in jobs if j["problems"])
    end_to_end = {
        "wall_s": median(j["wall_s"] for j in plain),
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_pct": median(j["values"].get("error_pct") for j in ok),
    }
    extras = {"failed_frac": failed / attempted}
    for key in EXTRA_UNITS:
        found = [j["values"][key] for j in ok if key in j["values"]]
        if found:
            extras[key] = median(found)
    layers = {}
    if tracer is not None:
        traced = [j for j in timed if j["traced"]]
        per_job = tracer.layer_metrics([j["spans"] for j in traced])
        if per_job and set(per_job[0]) ^ set(layer_names) != {"trace_overhead_pct"}:
            raise RuntimeError("per-layer metrics of tracing.py disagree with BENCHMARK.json")
        layers = {key: median(m.get(key) for m in per_job) for key in layer_names}
        layers["trace_overhead_pct"] = 100.0 * (
            median(j["wall_s"] for j in traced) / end_to_end["wall_s"] - 1.0)
    return {"end_to_end": end_to_end, "extras": extras, "layers": layers,
            "attempted": attempted, "failed": failed,
            "digests": sorted({j["values"]["dump_digest"] for j in ok
                               if "dump_digest" in j["values"]})}


def _number(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        spec = json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read {SPEC_FILE}: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "inductionfd" / "__init__.py").is_file():
        print(f"no inductionfd sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inductionfd
    if Path(inductionfd.__file__).resolve().parent != (SRC / "inductionfd").resolve():
        print(f"imported inductionfd from {inductionfd.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in WORKLOADS or args.workload not in why:
        print(f"unknown workload {args.workload!r}, expected one of {sorted(why)}",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    layer_names = [m["name"] for m in spec["per_layer"]]

    workload = WORKLOADS[args.workload]()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"tmp-{tag}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        jobs, setup_times, tracer = measure(workload, args.seconds, bool(args.trace),
                                            args.seed, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = summarize(workload, jobs, setup_times, tracer, layer_names)

    info = manifest()
    print(f"# {workload.name}: seed {args.seed}, trace {args.trace}, {len(jobs) - 1} timed "
          f"jobs after one warm-up; closed loop, one caller")
    print(f"# {why[workload.name]}")
    print("# manifest " + json.dumps(info, sort_keys=True))
    shown = {**summary["end_to_end"], **summary["extras"], **summary["layers"]}
    for key, value in shown.items():
        print(f"{key} {value:.6g} {units[key]}")
    for digest in summary["digests"]:
        print(f"dump_digest {digest}")

    reported = summary["layers"] if args.trace else summary["end_to_end"]
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": _number(v), "unit": units[k]} for k, v in reported.items()},
    }
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "manifest": info, "result": result,
              "all_metrics": shown, "dump_digests": summary["digests"],
              "setup_s": setup_times,
              "jobs": [{k: j[k] for k in ("wall_s", "traced", "problems")} for j in jobs]}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT / f"{workload.name}-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
