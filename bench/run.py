"""helmfosls benchmark: time, trace and check one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload study-1d --seed 0 --seconds 30 --trace 0

Workloads and why each was chosen: bench/workloads.py.  Metric names
and units: BENCHMARK.json.

Every repetition is a fresh process (bench/worker.py), as a user's study
is: it pays the same cold caches each time, and nothing one repetition
builds can speed up the next.  Repetitions run until ``--seconds`` would
be exceeded, at least ``MIN_REPS`` of them.  BLAS runs on one thread in
every worker: the machine has two cores shared with other processes, and
the workloads' time is in Python loops and sparse products, not BLAS.

``--trace 0`` reports the end-to-end metrics, each a median over the
repetitions: ``wall_cal_s`` (one workload run, set-up excluded), ``setup_s``
(import of helmfosls plus a fixed tiny warm-up case) and ``peak_rss_mb``.
The host is shared and its speed drifts by tens of percent over tens of
seconds, so both times are divided by the slowdown of fixed calibration
kernels timed just before and after each workload run (bench/calibrate.py):
they read as seconds on the idle machine.  The raw medians and the
slowdown are printed too.
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics: each layer's self time (median), exact counts (which
must repeat across the traced repetitions), the largest residual, drift
and mismatch, and ``trace.overhead_s``, traced minus untraced ``wall_cal_s``.
The spans go to .bench_out/trace-<workload>-seed<seed>.json.

Every case of every repetition is checked (bench/checks.py).  The last
line of stdout is the JSON result; ``failed / attempted`` is the share of
cases that raised or failed a check.  The exit code is 1 if any check
failed, and also when the benchmark cannot run at all, e.g. without
``src/helmfosls`` -- then no result is printed.

Smoke tests of the benchmark itself: ``python3 -m pytest bench/check_smoke.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402

WORKLOADS = ("study-1d", "study-2d", "solve-2d", "project-2d")
MIN_REPS = 3
TIME_LIMIT_S = 170  # the command must end within 180 s
BLAS_THREADS = "1"
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(workload, seed, size, traced, deadline):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV}, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a repetition ran past the {TIME_LIMIT_S} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"worker exited with code {proc.returncode}")
        rep = json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"{exc}\n{proc.stderr[-3000:]}") from exc
    rep["traced"] = traced
    return rep


def repeat(args):
    """Run repetitions for ``args.seconds``; traced and untraced alternate."""
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    reps = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        t0 = time.perf_counter()
        reps.append(run_worker(args.workload, args.seed, args.size, traced, deadline))
        now = time.perf_counter()
        took = now - t0
        if now + took > deadline:
            break
        if len(reps) >= MIN_REPS and now + took > start + args.seconds:
            break
    return reps


def check(args, reps, reference):
    """(attempted cases, failed cases, problems found)."""
    attempted = failed = 0
    problems = []
    for i, rep in enumerate(reps):
        attempted += rep["n_cases"]
        if "error" in rep:
            failed += rep["n_cases"]
            problems.append(f"run {i} raised:\n{rep['error']}")
            continue
        bad = checks.failures(args.workload, args.seed, rep["cases"], reference)
        failed += min(len(bad), rep["n_cases"])
        problems += [f"run {i} {case}: {'; '.join(why)}" for case, why in bad.items()]
        if rep.get("missing_layers"):
            problems.append(f"run {i}: no span or count from layers {rep['missing_layers']}")
    return attempted, failed, problems


def end_to_end(reps):
    ok = [r for r in reps if "wall_cal_s" in r]
    return {
        "wall_cal_s": statistics.median(r["wall_cal_s"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(reps, spec, problems):
    traced = [r for r in reps if r["traced"] and "wall_cal_s" in r]
    plain = [r for r in reps if not r["traced"] and "wall_cal_s" in r]
    if len(traced) < 2 or not plain:
        raise BenchError("too slow for two traced and one untraced repetition")
    out = {}
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        vals = [r["layer_metrics"].get(name, 0) for r in traced]
        if name == "trace.overhead_s":
            out[name] = (statistics.median(r["wall_cal_s"] for r in traced)
                         - statistics.median(r["wall_cal_s"] for r in plain))
        elif unit == "s":
            out[name] = statistics.median(vals)
        elif unit == "count":
            if len(set(vals)) > 1:
                problems.append(f"{name} differs between traced runs: {vals}")
            out[name] = vals[0]
        else:
            out[name] = max(vals)
    return out


def record_reference():
    """Write reference.json from seed-0 runs of the current library."""
    deadline = time.perf_counter() + 3600
    reference = {}
    for size in ("full", "smoke"):
        for workload in WORKLOADS:
            rep = run_worker(workload, 0, size, False, deadline)
            if "error" in rep:
                raise BenchError(rep["error"])
            reference.setdefault(size, {})[workload] = rep["cases"]
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke shrinks each workload to about a second")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from seed-0 runs")
    args = parser.parse_args()
    if not (ROOT / "src" / "helmfosls" / "__init__.py").is_file():
        raise BenchError(f"no library source at {ROOT / 'src' / 'helmfosls'}")
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    reps = repeat(args)
    attempted, failed, problems = check(args, reps, reference[args.size][args.workload])
    if not any("wall_cal_s" in r for r in reps):
        print("\n".join(problems), file=sys.stderr)
        raise BenchError("no repetition completed")
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(reps, wanted, problems)
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "env": reps[0]["env"],
            "runs": [{k: r.get(k) for k in ("traced", "wall_raw_s", "slowdown", "spans")} for r in reps],
        }))
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(reps)

    env = {"commit": git_commit(), "nproc": os.cpu_count(), **reps[0]["env"],
           "blas_threads_set": BLAS_THREADS, "workload": args.workload,
           "seed": args.seed, "size": args.size}
    print("# env " + json.dumps(env))
    n_traced = sum(r["traced"] for r in reps)
    print(f"# {len(reps)} repetitions, {n_traced} traced")
    for problem in problems:
        print("# FAIL " + problem)
    print(f"failed_frac: {failed}/{attempted} cases")
    for metric in wanted:
        name = metric["name"]
        samples = [f"{r[name]:.4g}" for r in reps if name in r]
        detail = f"  (median of {', '.join(samples)})" if samples else ""
        print(f"{name}: {values[name]:.6g} {metric['unit']}{detail}")
    for name in ("wall_raw_s", "setup_raw_s", "slowdown"):
        samples = [r[name] for r in reps if name in r]
        print(f"# {name}: median {statistics.median(samples):.4g}"
              f"  (of {', '.join(f'{v:.4g}' for v in samples)})")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
