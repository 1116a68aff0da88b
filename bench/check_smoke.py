"""Smoke tests of the benchmark itself, on the smoke size of each workload.

    python3 -m pytest -q bench/check_smoke.py

Not named test_*.py, so the library's own test run does not collect it.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_and_layer_span(workload, trace):
    proc = bench(workload, trace)
    metrics = result(proc)["metrics"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in metrics.items()
    }
    for m in spec:
        assert any(line.startswith(f"{m['name']}: ") and f" {m['unit']}" in line
                   for line in proc.stdout.splitlines())
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
        return

    trace_file = ROOT / ".bench_out" / f"trace-{workload}-seed1.json"
    traced = [run for run in json.loads(trace_file.read_text())["runs"] if run["traced"]]
    assert len(traced) >= 2
    expected = tracer.SPAN_SITES.keys() & set(workloads.LAYERS[workload])
    for run in traced:
        assert expected <= {span["layer"] for span in run["spans"]}
        assert all(span["end"] >= span["start"] for span in run["spans"])


def test_fails_without_library_source():
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
