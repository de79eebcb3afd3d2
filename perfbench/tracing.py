"""Traced pass: recording wrappers around the program's public functions.

The program is not changed.  ``Tracer.install`` replaces each traced
function in every ``sfq_ecc`` namespace that holds it (``from x import f``
binds ``f`` where it is imported, so ``ppv.decode`` and ``cli.synthesize``
are patched as well as ``codes.decode`` and ``synth.synthesize``) and the
three ``Netlist`` methods on the class.  A span is recorded only while an
operation id is set, so output checks run between operations stay out of
the trace.  Spans are kept in memory and written out when the run ends.

Chip draws are counted, not timed: the private ``ppv._chip_material``, which
every chip evaluation calls once, gets a wrapper that records the identity
of the material it draws (a span per chip would cost more than the draw).

Self time is a span's duration minus the durations of its direct children;
one caller and no threads, so children never overlap.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from collections import defaultdict

import numpy as np

from sfq_ecc import celllib, cli, codes, netlist, ppv, sim, synth

CODES = codes.CODE_NAMES
SETUPS = ppv.SETUP_NAMES


def _code_of_net(net) -> str:
    return net.name.removesuffix("_encoder")


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


# name -> (owner, attribute, tag(args, kwargs, result)); owner is a module,
# whose function is also replaced wherever else sfq_ecc imported it, or a class.
TRACED = {
    "codes.decode": (codes, "decode", lambda a, k, r: a[0].name),
    "codes.make_code": (codes, "make_code", None),
    "codes.capability_summary": (codes, "capability_summary", lambda a, k, r: a[0].name),
    "synth.synthesize": (synth, "synthesize", lambda a, k, r: a[0].name),
    "netlist.validate": (netlist.Netlist, "validate", None),
    "netlist.depth": (netlist.Netlist, "depth", None),
    "netlist.content_hash": (netlist.Netlist, "content_hash", None),
    "celllib.cost_report": (celllib, "cost_report", None),
    "sim.simulate": (sim, "simulate",
                     lambda a, k, r: (_code_of_net(a[0]), len(r.outputs))),
    "sim.verify_equivalence": (sim, "verify_equivalence", lambda a, k, r: a[1].name),
    "ppv.make_setup": (ppv, "make_setup", lambda a, k, r: r.name),
    "ppv.sample_chip": (ppv, "sample_chip", None),
    "ppv.error_counts": (ppv, "error_counts", lambda a, k, r: (
        a[0].name, _arg(a, k, 1, "cfg"))),
    "ppv.monte_carlo": (ppv, "monte_carlo", lambda a, k, r: a[0].name),
    "ppv.calibrate_fault_model": (ppv, "calibrate_fault_model", None),
    "cli.mc": (cli, "cmd_mc", None),
}


class Tracer:
    def __init__(self):
        # span: [name, tag, start, end, parent index or -1, operation id]
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._undo: list = []
        # operation id -> identities of the chips drawn while it was set
        self.draws: dict = defaultdict(list)

    def _wrap(self, name, fn, tag):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            i = len(spans)
            span = [name, None, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(i)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if tag is not None:
                span[1] = tag(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "sfq_ecc" or n.startswith("sfq_ecc.")]
        for name, (owner, attr, tag) in TRACED.items():
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, tag)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is fn]
            for holder in holders:
                self._undo.append((holder, attr, fn))
                setattr(holder, attr, wrapper)
        fn = ppv._chip_material
        self._undo.append((ppv, "_chip_material", fn))
        ppv._chip_material = self._count_draws(fn)

    def _count_draws(self, fn):
        draws = self.draws

        def counted(eng, cfg, chip_index):
            # the material depends on these and nothing else
            if self.op is not None:
                draws[self.op].append((
                    eng.n_cells, eng.n_splitters, len(eng.net.inputs), cfg.master_seed,
                    cfg.spread, cfg.distribution, cfg.n_messages, chip_index))
            return fn(eng, cfg, chip_index)

        counted.__wrapped__ = fn
        return counted

    def uninstall(self):
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()

    def patched_namespaces(self) -> list:
        return sorted({f"{getattr(h, '__name__', h)}.{a}" for h, a, _ in self._undo})

    def dump(self) -> list:
        out = []
        for name, tag, t0, t1, parent, op in self.spans:
            if name == "ppv.error_counts":
                tag = [tag[0], tag[1].master_seed, tag[1].n_chips]
            out.append([name, tag, t0, t1, parent, op])
        return out


def layer_probe(workdir, library):
    """Fixed calls into every traced layer, the same on every workload.

    A per-layer time whose function the workload never calls is taken from
    these calls, so every metric is measured on every workload.
    """
    rng = np.random.default_rng(0)
    for name in CODES:
        code = codes.make_code(name)
        codes.capability_summary(code)
        net = synth.synthesize(code)
        celllib.cost_report(net, library)
        net.content_hash()
        sim.verify_equivalence(net, code)
        msgs = rng.integers(0, 2, (500, code.k), dtype=np.uint8)
        sim.simulate(net, sim.message_frames(net, msgs))
        for w in rng.integers(0, 2, (200, code.n), dtype=np.uint8):
            codes.decode(code, w)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["mc", "--chips", "250", "--out", str(workdir / "probe")])
    net = ppv.make_setup("rm13").netlist
    cfg = ppv.PpvConfig()
    for chip in range(200):
        ppv.sample_chip(net, cfg, chip)
    ppv.calibrate_fault_model(base=ppv.PpvConfig(n_chips=4), search_chips=2,
                              refine_chips=2)


def layer_metrics(spans, draws: dict, n_ops: int) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass.

    Operation ids: ``"setup"``, then ``0 .. n_ops - 1`` for the traced
    operations, then ``"probe"``.  Counts cover the setup and the
    operations, else (when the workload makes none) the probe.  A per-call
    time comes from the operations, else from the setup (decode tables are
    built there), else from the probe; a per-op self time from the
    operations, else from the probe.  Returns the metrics and the names
    taken from the probe.
    """
    self_s = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            self_s[s[4]] -= s[3] - s[2]
    by_op = defaultdict(lambda: defaultdict(list))
    for i, s in enumerate(spans):
        source = s[5] if s[5] in ("setup", "probe") else "ops"
        by_op[source][s[0]].append(i)
    ops, setup, probe = by_op["ops"], by_op["setup"], by_op["probe"]

    metrics: dict = {}
    from_probe: list = []

    def dur(idx):
        return sum(spans[i][3] - spans[i][2] for i in idx)

    def timed(metric, unit, name, value, match, sources):
        for source in sources:
            idx = [i for i in source[name] if match(spans[i][1])]
            if idx:
                if source is probe:
                    from_probe.append(metric)
                metrics[metric] = (value(idx, 1 if source is probe else n_ops), unit)
                return
        raise RuntimeError(f"{metric}: no spans in the workload or the probe")

    def per_call(metric, unit, name, match=lambda tag: True):
        scale = {"us": 1e6, "ms": 1e3}[unit]
        timed(metric, unit, name, lambda idx, n: dur(idx) / len(idx) * scale, match,
              (ops, setup, probe))

    def self_per_op(metric, name, match=lambda tag: True):
        timed(metric, "ms", name, lambda idx, n: sum(self_s[i] for i in idx) / n * 1e3,
              match, (ops, probe))

    for name in ("codes.decode", "codes.make_code", "synth.synthesize",
                 "netlist.validate", "netlist.depth", "sim.simulate", "ppv.error_counts"):
        calls = len(ops[name]) + len(setup[name])
        if not calls:
            calls = len(probe[name])
            from_probe.append(f"{name}.calls")
        metrics[f"{name}.calls"] = (calls, "count")

    drawn = [key for op, keys in draws.items() if op == "setup" or isinstance(op, int)
             for key in keys]
    if not drawn:
        drawn = draws["probe"]
        from_probe += ["ppv.chips_evaluated", "ppv.distinct_chip_frac"]
    metrics["ppv.chips_evaluated"] = (len(drawn), "count")
    metrics["ppv.distinct_chip_frac"] = (len(set(drawn)) / len(drawn), "ratio")

    for code in CODES:
        is_code = lambda tag, code=code: tag == code
        on_code = lambda tag, code=code: tag[0] == code
        per_call(f"codes.decode.us.{code}", "us", "codes.decode", is_code)
        per_call(f"codes.capability_summary.ms.{code}", "ms",
                 "codes.capability_summary", is_code)
        per_call(f"synth.synthesize.ms.{code}", "ms", "synth.synthesize", is_code)
        timed(f"sim.simulate.us_per_cycle.{code}", "us", "sim.simulate",
              lambda idx, n: dur(idx) / sum(spans[i][1][1] for i in idx) * 1e6,
              on_code, (ops, setup, probe))
        per_call(f"sim.verify_equivalence.ms.{code}", "ms", "sim.verify_equivalence",
                 is_code)
    self_per_op("netlist.validate.self_ms", "netlist.validate")
    per_call("netlist.content_hash.ms", "ms", "netlist.content_hash")
    per_call("celllib.cost_report.us", "us", "celllib.cost_report")
    self_per_op("cli.mc.self_ms", "cli.mc")
    per_call("ppv.sample_chip.us", "us", "ppv.sample_chip")
    self_per_op("ppv.calibrate_fault_model.self_ms", "ppv.calibrate_fault_model")
    for setup_name in SETUPS:
        is_setup = lambda tag, s=setup_name: tag == s
        per_call(f"ppv.make_setup.ms.{setup_name}", "ms", "ppv.make_setup", is_setup)
        timed(f"ppv.error_counts.ms_per_1k_chips.{setup_name}", "ms", "ppv.error_counts",
              lambda idx, n: dur(idx) / sum(spans[i][1][1].n_chips for i in idx) * 1e6,
              lambda tag, s=setup_name: tag[0] == s, (ops, probe))
        self_per_op(f"ppv.monte_carlo.self_ms.{setup_name}", "ppv.monte_carlo", is_setup)
    return metrics, from_probe
