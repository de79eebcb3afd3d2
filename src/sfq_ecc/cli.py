"""``sfq-ecc`` command line: codes, synth, simulate, mc, calibrate.

Every command writes machine-readable artifacts (JSON/CSV) plus an aligned
text rendering of the same data, and is fully reproducible: outputs are
determined by the sub-command, its config and its seed.  Exit status 0 is
success; 2 flags invalid input, 3 a structural netlist problem, and 4 a
calibration that did not converge (its config is still written).

The default output directory is ``.`` or ``$SFQ_ECC_OUT`` when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from sfq_ecc import celllib, ppv
from sfq_ecc.codes import (
    CODE_NAMES,
    CORRECT,
    DETECT_ONLY,
    analyze_patterns,
    bits,
    bitstr,
    capability_summary,
    make_code,
)
from sfq_ecc.netlist import Netlist, StructuralError
from sfq_ecc.sim import message_frames, simulate, to_timeline, verify_equivalence
from sfq_ecc.synth import synthesize

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STRUCTURAL = 3
EXIT_NONCONVERGED = 4


def _outdir(args) -> Path:
    out = Path(args.out or os.environ.get("SFQ_ECC_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _given(args, flag: str):
    """The value of ``--flag``, or None when it is absent; an empty value is an error."""
    value = getattr(args, flag, None)
    if value == "":
        raise ValueError(f"--{flag} is empty; give a value or leave the flag out")
    return value


def _library(args) -> celllib.CellLibrary:
    if _given(args, "library") is not None:
        return celllib.read_library(args.library)
    ref = resources.files("sfq_ecc").joinpath("data/cell_library.cfg")
    with resources.as_file(ref) as path:
        return celllib.read_library(path)


def _default_ppv_config() -> ppv.PpvConfig:
    ref = resources.files("sfq_ecc").joinpath("data/ppv_calibrated.json")
    doc = json.loads(ref.read_text())
    return ppv.PpvConfig.from_dict(doc["config"])


def cmd_codes(args) -> int:
    code = make_code(args.code)
    out = _outdir(args)
    rows = []
    for mode in (DETECT_ONLY, CORRECT):
        for t in range(0, 5):
            pa = analyze_patterns(code, mode, t)
            rows.append({"mode": mode, **pa.__dict__})
    summary = capability_summary(code)
    doc = {
        "code": code.name,
        "n": code.n,
        "k": code.k,
        "d_min": code.d_min,
        "patterns": rows,
        "capabilities": {
            "guaranteed_detect": summary.guaranteed_detect,
            "guaranteed_correct": summary.guaranteed_correct,
            "correct_mode_safe": summary.correct_mode_safe,
            "partial_detect": summary.partial_detect,
            "opportunistic_correct": summary.opportunistic_correct,
        },
        "table_row": summary.table_row(),
    }
    (out / f"codes_{code.name}.json").write_text(json.dumps(doc, indent=2, sort_keys=True))

    print(f"{code.name}: ({code.n},{code.k}) d_min={code.d_min}")
    print(f"{'mode':<12}{'t':>3}{'total':>7}{'corrected':>11}{'detected':>10}"
          f"{'miscorrected':>14}{'undetected':>12}")
    for r in rows:
        print(f"{r['mode']:<12}{r['weight']:>3}{r['total']:>7}{r['corrected']:>11}"
              f"{r['detected']:>10}{r['miscorrected']:>14}{r['undetected']:>12}")
    tr = doc["table_row"]
    print(f"worst case: detect {tr['worst_detect']}, correct {tr['worst_correct']}; "
          f"best case: detect {tr['best_detect']}, correct {tr['best_correct']}")
    return EXIT_OK


def cmd_synth(args) -> int:
    code = make_code(args.code)
    library = _library(args)
    net = synthesize(code)
    report = celllib.cost_report(net, library)
    out = _outdir(args)
    (out / f"{code.name}_netlist.json").write_text(net.to_json() + "\n")
    doc = {
        "code": code.name,
        "cells": report.counts,
        "data_splitters": report.data_splitters,
        "clock_splitters": report.clock_splitters,
        "jj_total": report.jj_total,
        "power_total_uW": round(report.power_total_uW, 3),
        "area_total_mm2": round(report.area_total_mm2, 4),
        "netlist_hash": net.content_hash(),
    }
    (out / f"{code.name}_cost.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    print(f"{code.name}: " + ", ".join(f"{v} {k}" for k, v in report.counts.items()))
    print(f"splitters: {report.data_splitters} data + {report.clock_splitters} clock")
    print(f"jj_total={report.jj_total}  power={report.power_total_uW:.1f} uW  "
          f"area={report.area_total_mm2:.3f} mm^2")
    print(f"netlist -> {out / (code.name + '_netlist.json')}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    net = Netlist.from_json(Path(args.netlist).read_text())
    net.validate()
    code = make_code(args.code) if args.code else None
    if code is not None:
        ok, cex = verify_equivalence(net, code)
        if not ok:
            print(f"netlist disagrees with {code.name} encoding on message "
                  f"{bitstr(cex)}", file=sys.stderr)
            return EXIT_STRUCTURAL
    messages = [bits(m) for m in args.message]
    frames = message_frames(net, messages)
    result = simulate(net, frames, cycles=None if len(frames) else 0)
    rows = to_timeline(result, args.clock_ghz)
    out = _outdir(args)
    path = out / "timeline.csv"
    with path.open("w") as f:
        f.write("time_ns,net_id,value\n")
        last = None
        for t, net_id, v in rows:
            if t != last:  # a cycle's rows share its stamp: format it once
                last, stamp = t, f"{t:.6g}"
            f.write(f"{stamp},{net_id},{v}\n")
    print(f"latency: {result.latency} cycles at {args.clock_ghz} GHz")
    for m in messages:
        print(f"message {bitstr(m)}")
    for cyc, frame in enumerate(result.outputs):
        print(f"cycle {cyc}: {bitstr(frame)}")
    print(f"timeline -> {path}")
    return EXIT_OK


# command-line flag -> PpvConfig field it sets
_OVERRIDES = {"seed": "master_seed", "chips": "n_chips", "messages": "n_messages",
              "spread": "spread"}


def _overridden(cfg: ppv.PpvConfig, args) -> ppv.PpvConfig:
    """``cfg`` with the fields of the override flags given on the command line."""
    return replace(cfg, **{field: getattr(args, flag) for flag, field in _OVERRIDES.items()
                           if getattr(args, flag, None) is not None})


def _load_ppv_config(args) -> ppv.PpvConfig:
    if _given(args, "config") is not None:
        doc = json.loads(Path(args.config).read_text())
        cfg = ppv.PpvConfig.from_dict(doc.get("config", doc) if isinstance(doc, dict) else doc)
    else:
        cfg = _default_ppv_config()
    return _overridden(cfg, args)


_Z95 = 1.959963984540054  # the standard normal's 97.5 % quantile


def _wilson95(p: float, n: int) -> tuple:
    """95 % Wilson score interval (Wilson, JASA 1927) of a proportion ``p`` of ``n`` trials.

    Unlike ``p +- z * se`` it stays inside [0, 1] and is not empty at ``p``
    of 0 or 1.
    """
    scale = 1.0 + _Z95 * _Z95 / n
    center = (p + _Z95 * _Z95 / (2 * n)) / scale
    half = _Z95 / scale * math.sqrt(p * (1.0 - p) / n + _Z95 * _Z95 / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def cmd_mc(args) -> int:
    cfg = _load_ppv_config(args)
    names = list(dict.fromkeys(args.codes or ppv.SETUP_NAMES))  # each once, first-given order
    out = _outdir(args)
    summary = {}
    manifest_runs = {}
    setups = [ppv.make_setup(name) for name in names]
    chips = ppv.ChipStore(cfg, [s.netlist for s in setups])  # drawn once
    for setup in setups:
        series = ppv.monte_carlo(setup, cfg, chips)
        (out / f"cdf_{setup.name}.csv").write_text(series.to_csv())
        summary[setup.name] = (series.zero_error_prob,
                               *_wilson95(series.zero_error_prob, cfg.n_chips))
        manifest_runs[setup.name] = {
            "netlist_hash": setup.netlist.content_hash(),
            "zero_error_prob": series.zero_error_prob,
        }
    manifest = {
        "config": cfg.to_dict(),
        "seed": cfg.master_seed,
        "runs": manifest_runs,
    }
    (out / "mc_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    print(f"{'configuration':<14}{'P(zero errors)':>16}  95% Wilson interval")
    for name in names:
        p, lo, hi = summary[name]
        print(f"{name:<14}{p:>16.3f}  [{lo:.3f}, {hi:.3f}]")
    print(f"CDFs and manifest -> {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    targets = dict(ppv.CALIBRATION_TARGETS)
    if _given(args, "targets") is not None:
        vals = [float(v) for v in args.targets.split(",")]
        if len(vals) != len(ppv.SETUP_NAMES):
            raise ValueError(f"expected {len(ppv.SETUP_NAMES)} targets "
                             f"(order: {', '.join(ppv.SETUP_NAMES)})")
        targets = dict(zip(ppv.SETUP_NAMES, vals))
    res = ppv.calibrate_fault_model(targets, base=_overridden(ppv.PpvConfig(), args),
                                    search_chips=args.search_chips,
                                    refine_rounds=args.refine_rounds)
    out = _outdir(args)
    doc = {
        "config": res.config.to_dict(),
        "achieved": res.achieved,
        "targets": res.targets,
        "max_abs_dev": res.max_abs_dev,
        "ordering_ok": res.ordering_ok,
        "converged": res.converged,
        "stage": res.stage,
    }
    path = out / "ppv_calibrated.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    print(f"{'configuration':<14}{'target':>9}{'achieved':>10}{'dev':>8}")
    for name in ppv.SETUP_NAMES:
        print(f"{name:<14}{res.targets[name]:>9.3f}{res.achieved[name]:>10.3f}"
              f"{res.achieved[name] - res.targets[name]:>+8.3f}")
    if ppv.ordered(res.targets):
        order_note = "preserved" if res.ordering_ok else "violated"
    else:
        order_note = "not required (targets unordered)"
    print(f"max |dev| = {res.max_abs_dev:.3f}, ordering {order_note}, "
          f"stage {res.stage}")
    print(f"config -> {path}")
    if not res.converged:
        print("warning: calibration did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sfq-ecc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output directory (default: $SFQ_ECC_OUT or .)")

    sp = sub.add_parser("codes", help="pattern analysis and capability table")
    sp.add_argument("code", choices=CODE_NAMES)
    common(sp)
    sp.set_defaults(fn=cmd_codes)

    sp = sub.add_parser("synth", help="synthesize encoder netlist + cost report")
    sp.add_argument("code", choices=CODE_NAMES)
    sp.add_argument("--library", help="cell library config file")
    common(sp)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("simulate", help="cycle simulation of a netlist file")
    sp.add_argument("netlist", help="netlist JSON file")
    sp.add_argument("--message", action="append", default=[],
                    help="message bits, e.g. 1011 (repeatable)")
    sp.add_argument("--code", choices=CODE_NAMES,
                    help="verify equivalence against this code first")
    sp.add_argument("--clock-ghz", type=float, default=5.0)
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("mc", help="Monte Carlo fault injection CDFs")
    sp.add_argument("--codes", nargs="+", choices=list(ppv.SETUP_NAMES),
                    help="configurations to run (default: all four)")
    sp.add_argument("--config", help="PPV config JSON (default: shipped calibration)")
    sp.add_argument("--seed", type=int, help="master seed of the chips, 0 to 2**31 - 1")
    sp.add_argument("--chips", type=int)
    sp.add_argument("--messages", type=int)
    sp.add_argument("--spread", type=float)
    common(sp)
    sp.set_defaults(fn=cmd_mc)

    sp = sub.add_parser("calibrate", help="fit the fault model to target probabilities")
    sp.add_argument("--targets",
                    help="comma list in order none,rm13,hamming74,hamming84")
    sp.add_argument("--seed", type=int, help="master seed of the chips, 0 to 2**31 - 1")
    sp.add_argument("--chips", type=int)
    sp.add_argument("--spread", type=float)
    sp.add_argument("--search-chips", type=int, default=250)
    sp.add_argument("--refine-rounds", type=int, default=2)
    common(sp)
    sp.set_defaults(fn=cmd_calibrate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StructuralError as e:
        print(f"structural error: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except (ValueError, OSError) as e:  # json.JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as e:  # e.g. a message or chip count too large to allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
