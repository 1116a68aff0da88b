"""One repetition of one workload in a fresh process; see run.py.

Imports the library from ``src/`` of the checkout, runs the fixed
warm-up case (together: ``setup_raw_s``), times the calibration kernels,
runs the workload once (``wall_raw_s``), times the kernels again, then
observes every case for the checks.  ``setup_s`` and ``wall_cal_s`` are
the two times divided by the kernels' slowdown (bench/calibrate.py).
Prints one JSON line.
"""

import argparse
import contextlib
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _env():
    """Library versions, and numpy's BLAS with its live thread count."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{info.get('name')} {info.get('version')}", "blas_threads": threads}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "smoke"], required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import helmfosls

    source = Path(helmfosls.__file__).resolve()
    if ROOT / "src" not in source.parents:
        sys.exit(f"helmfosls imported from {source}, not from {ROOT / 'src'}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import calibrate
    import tracer as tracing
    import workloads

    workloads.warm_up()
    setup_s = time.perf_counter() - start

    calibration = [calibrate.time_kernels()]
    out = {"setup_raw_s": setup_s, "n_cases": workloads.n_cases(args.workload, args.size)}
    scratch_root = ROOT / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        tracer = tracing.Tracer() if args.traced else contextlib.nullcontext()
        try:
            with tracer:
                t0 = time.perf_counter()
                result = workloads.run(args.workload, args.size, args.seed, scratch)
                out["wall_raw_s"] = time.perf_counter() - t0
            calibration.append(calibrate.time_kernels())
            out["cases"] = workloads.cases(args.workload, args.size, result)
        except Exception:  # reported as failed cases, never as a result
            out["error"] = traceback.format_exc()
    # end-to-end times at the idle machine's speed; see calibrate.py
    out["slowdown"] = calibrate.slowdown(calibration)
    out["setup_s"] = setup_s / out["slowdown"]
    if "wall_raw_s" in out:
        out["wall_cal_s"] = out["wall_raw_s"] / out["slowdown"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = _env()
    if args.traced:
        self_s = tracer.layer_self_times()
        out["spans"] = tracer.spans
        out["layer_metrics"] = {
            **{tracing.SPAN_SITES[layer][0]: t for layer, t in self_s.items()},
            **tracer.record,
        }
        out["missing_layers"] = [
            layer for layer in workloads.LAYERS[args.workload]
            if layer not in self_s and not tracer.record.get(layer)
        ]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
