"""The benchmark tracer still finds the library functions it wraps.

``bench/tracer.py`` patches library functions at the names their callers
use and silently skips a name that no longer exists, so a rename shows
up only as a traced benchmark run that records nothing for a layer.
This test reads the benchmark's site tables (without changing them) and
requires every layer or count a workload must record to resolve to at
least one existing name.
"""

import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


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
