"""The benchmark still runs against the library as it is.

Seed-0 checks: every workload, run in-process at its smoke size, still
matches ``bench/reference.json``, so a library change that breaks one of
the benchmark's direct calls fails here, not only in
``bench/check_smoke.py``.

Tracer sites: the benchmark tracer still finds the library functions it
wraps.

``bench/tracer.py`` patches library functions at the names their callers
use and silently skips a name that no longer exists, so a rename shows
up only as a traced benchmark run that records nothing for a layer.
This test reads the benchmark's site tables (without changing them) and
requires every layer or count a workload must record to resolve to at
least one existing name.
"""

import importlib.util
import json
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
tracer = _load("tracer")
workloads = _load("workloads")
REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.PARAMS))
def test_seed0_smoke_run_matches_reference(workload, tmp_path):
    result = workloads.run(workload, "smoke", 0, str(tmp_path))
    cases = workloads.cases(workload, "smoke", result)
    assert checks.failures(workload, 0, cases, REFERENCE["smoke"][workload]) == {}


def _sites(layer):
    if layer in tracer.SPAN_SITES:
        return tracer.SPAN_SITES[layer][1]
    return tracer.COUNT_SITES[layer]


def _existing(site):
    container, key = tracer._resolve(site)
    return tracer._get(container, key) is not None


@pytest.mark.parametrize(
    "workload,layer",
    [(w, layer) for w, layers in workloads.LAYERS.items() for layer in layers],
)
def test_required_layer_has_a_live_site(workload, layer):
    sites = _sites(layer)
    assert any(_existing(s) for s in sites), (
        f"{workload}: no call site of {layer!r} exists any more: {sites}"
    )
