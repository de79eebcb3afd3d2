"""The benchmark's tracing hooks still fit the fault-injection functions they wrap."""

import json
import sys
from pathlib import Path

from sfq_ecc import ppv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_chip_draws_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    material, error_counts = ppv._chip_material, ppv.error_counts
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ppv._chip_material is not material
        tracer.op = 0
        setup = ppv.make_setup("hamming84")
        cfg = ppv.PpvConfig(n_chips=2, n_messages=10)
        counts = ppv.error_counts(setup, cfg)
        one = ppv.run_trial(setup, ppv.sample_chip(setup.netlist, cfg, 1), cfg)
    finally:
        tracer.op = None
        tracer.uninstall()
    assert one == counts[1]
    # error_counts draws chips 0 and 1, sample_chip and run_trial chip 1 each
    assert [key[-1] for key in tracer.draws[0]] == [0, 1, 1, 1]
    assert {span[0] for span in tracer.spans} >= {"ppv.error_counts", "ppv.sample_chip"}
    assert ppv._chip_material is material and ppv.error_counts is error_counts


def test_layer_probe_fills_every_per_layer_metric(monkeypatch, tmp_path):
    # the probe stands in for each layer a workload does not call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "probe"
        tracing.layer_probe(tmp_path, workloads.shipped_library())
    finally:
        tracer.op = None
        tracer.uninstall()
    metrics, _ = tracing.layer_metrics(tracer.spans, tracer.draws, 0)
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - set(metrics) - {"trace.overhead_pct"}
    assert not missing
