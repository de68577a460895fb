"""The contract between the package and ``verdictbench/``: one traced pass of
every workload gives the golden reports, and the tracer finds every layer
entry point it wraps.

No other test runs a pass with tracing on, so a refactor that renames a
traced entry point, or changes how it is called, would otherwise show only
when the benchmark runs. This reads ``verdictbench/`` and changes nothing
there; the spans go to a temporary directory.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "verdictbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"verdictbench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("run")
tracing = _load("tracing")


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """Per workload: the payload of one traced pass at seed 0 and the span
    names in the header of the span file it wrote."""
    out = {}
    for workload, calls in bench.WORKLOADS.items():
        spans = str(tmp_path_factory.mktemp("spans") / f"spans-{workload}.bin")
        payload = bench.run_pass(ROOT, calls, 0, spans, bench.REFERENCE[workload])
        names = None
        if os.path.isfile(spans):
            with open(spans, "rb") as fh:
                names = json.loads(fh.readline())["names"]
        out[workload] = payload, names
    return out


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_a_traced_pass_gives_the_golden_reports(traced_passes, workload):
    payload, _ = traced_passes[workload]
    assert payload["crash"] is None  # the child exited 0
    golden = bench.golden(0)
    calls = bench.WORKLOADS[workload]
    assert [f"{c['scenario']}@{c['n']}" for c in payload["calls"]] == list(calls)
    for call, res in zip(calls, payload["calls"]):
        assert res["error"] is None and res["rc"] == 0, (call, res["error"])
        assert res["sha256"] == golden[call], call


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_layer_span_is_recorded(traced_passes, workload):
    payload, names = traced_passes[workload]
    assert payload["crash"] is None
    targets = set(tracing.layer_targets())
    assert targets <= set(names)
    assert targets <= set(payload["trace"]["layers"])


def test_every_layer_span_is_called_by_some_workload(traced_passes):
    """A span that no workload reaches has lost its entry point: the
    function was renamed, or the package no longer calls it by the name the
    tracer rebinds."""
    called = {name for payload, _ in traced_passes.values()
              for name, layer in payload["trace"]["layers"].items() if layer["calls"]}
    assert set(tracing.layer_targets()) <= called
