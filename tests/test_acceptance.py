"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run as ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Criterion 8 performs the full fault-model calibration and is the slowest.
"""

import itertools
import json
import time

import numpy as np
import pytest

from sfq_ecc.celllib import calibrate_library, cost_report, default_library
from sfq_ecc.cli import main as cli_main
from sfq_ecc.codes import (
    CORRECT,
    DETECT_ONLY,
    TIE_OPTIMISTIC,
    analyze_patterns,
    bitstr,
    capability_summary,
    encode,
    make_code,
)
from sfq_ecc.ppv import (
    SETUP_NAMES,
    calibrate_fault_model,
    error_counts,
    make_setup,
    monte_carlo,
    PpvConfig,
)
from sfq_ecc.sim import latency, message_frames, simulate
from sfq_ecc.synth import synthesize

ALL_CODES = ("hamming74", "hamming84", "rm13")


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_encoding_oracle():
    t0 = time.time()
    ok = True
    for name in ALL_CODES:
        code = make_code(name)
        net = synthesize(code)
        depth = net.depth()
        for idx in range(16):
            m = code.messages[idx]
            res = simulate(net, message_frames(net, [m]), cycles=depth + 1)
            if not np.array_equal(res.outputs[depth], encode(code, m)):
                ok = False
    fig = bitstr(encode(make_code("hamming84"), "1011")) == "01100110"
    took = time.time() - t0
    verdict(1, ok and fig and took < 1.0,
            f"netlist==matrix for 16x3 messages, hamming84(1011)=01100110, {took:.2f}s")


def test_criterion_02_minimum_distances():
    t0 = time.time()
    got = tuple(make_code(n).d_min for n in ALL_CODES)
    took = time.time() - t0
    verdict(2, got == (3, 4, 4) and took < 1.0,
            f"(hamming74, hamming84, rm13) d_min = {got}, {took:.2f}s")


def test_criterion_03_weight3_detection():
    t0 = time.time()
    pa = analyze_patterns(make_code("hamming74"), DETECT_ONLY, 3)
    took = time.time() - t0
    verdict(3, (pa.detected, pa.undetected, pa.total) == (28, 7, 35) and took < 1.0,
            f"hamming74 weight-3: detected {pa.detected}/{pa.total}, "
            f"undetected {pa.undetected}, {took:.2f}s")


def test_criterion_04_capability_table():
    t0 = time.time()
    rows = {n: capability_summary(make_code(n)).table_row() for n in ALL_CODES}
    ok = (rows["hamming84"]["worst_detect"] == 3
          and rows["hamming84"]["worst_correct"] == 1
          and rows["hamming74"]["worst_detect"] == 1
          and rows["hamming74"]["worst_correct"] == 1
          and rows["hamming74"]["best_detect"] == 3
          and rows["rm13"]["best_correct"] == 2)
    # the rm13 best case must come from at least one weight-2 pattern
    # decoded correctly under optimistic tie-breaking
    pa = analyze_patterns(make_code("rm13"), CORRECT, 2, tie_break=TIE_OPTIMISTIC)
    took = time.time() - t0
    verdict(4, ok and pa.corrected >= 1 and took < 1.0,
            f"table rows {rows['hamming74']}, {rows['hamming84']}, {rows['rm13']}; "
            f"rm13 weight-2 corrected={pa.corrected}, {took:.2f}s")


def test_criterion_05_synthesis_goldens():
    t0 = time.time()
    c84 = synthesize(make_code("hamming84")).counts()
    crm = synthesize(make_code("rm13")).counts()
    c74 = synthesize(make_code("hamming74")).counts()
    ok84 = c84 == {"XOR": 6, "DFF": 8, "SPLITTER": 23, "SFQ2DC": 8,
                   "data_splitters": 10, "clock_splitters": 13}
    okrm = crm == {"XOR": 8, "DFF": 7, "SPLITTER": 26, "SFQ2DC": 8,
                   "data_splitters": 12, "clock_splitters": 14}
    ok74 = (c74["XOR"] == 5 and c74["DFF"] == 8 and c74["SFQ2DC"] == 7
            and abs(c74["SPLITTER"] - 20) <= 1)
    took = time.time() - t0
    verdict(5, ok84 and okrm and ok74 and took < 1.0,
            f"hamming84 {c84}; rm13 {crm}; hamming74 splitters {c74['SPLITTER']} "
            f"(20 +- 1), {took:.2f}s")


def test_criterion_06_jj_calibration():
    t0 = time.time()
    jj = calibrate_library()
    unique = jj == {"XOR": 11, "DFF": 7, "SPLITTER": 4, "SFQ2DC": 8}
    lib = default_library()
    totals = {n: cost_report(synthesize(make_code(n)), lib).jj_total for n in ALL_CODES}
    ok = (unique and totals["hamming84"] == 278 and totals["rm13"] == 305
          and abs(totals["hamming74"] - 247) <= 4)
    took = time.time() - t0
    verdict(6, ok and took < 1.0,
            f"per-cell jj {jj}; totals {totals}, {took:.2f}s")


def test_criterion_07_latency_and_pipelining():
    t0 = time.time()
    rng = np.random.default_rng(2718)
    ok = True
    for name in ALL_CODES:
        code = make_code(name)
        net = synthesize(code)
        if latency(net) != 2:
            ok = False
        msgs = rng.integers(0, 2, (10_000, 4)).astype(np.uint8)
        res = simulate(net, message_frames(net, msgs))
        expected = (msgs @ code.G) % 2
        for t in range(len(msgs)):
            if not np.array_equal(res.outputs[t + 2], expected[t]):
                ok = False
                break
    took = time.time() - t0
    verdict(7, ok and took < 5.0,
            f"latency 2 everywhere; 10,000-message streams match per-cycle "
            f"matrix encoding, {took:.2f}s")


def test_criterion_08_monte_carlo_reproduction():
    result = calibrate_fault_model()
    cfg = result.config
    assert cfg.n_chips == 1000 and cfg.n_messages == 100 and cfg.spread == 0.20
    t0 = time.time()
    probs = {name: float((error_counts(make_setup(name), cfg) == 0).mean())
             for name in SETUP_NAMES}
    took = time.time() - t0
    targets = result.targets
    ordered = (probs["none"] < probs["rm13"] < probs["hamming74"]
               < probs["hamming84"])
    within = all(abs(probs[k] - targets[k]) <= 0.05 for k in targets)
    verdict(8, ordered and within and took < 60.0,
            "zero-error probabilities "
            + " ".join(f"{k}={probs[k]:.3f}(target {targets[k]:.3f})" for k in SETUP_NAMES)
            + f", ordering {'ok' if ordered else 'violated'}, 4-config run {took:.1f}s")


def test_criterion_09_mc_determinism(tmp_path):
    t0 = time.time()
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli_main(["mc", "--out", str(out)]) == 0
    files = ["cdf_none.csv", "cdf_rm13.csv", "cdf_hamming74.csv",
             "cdf_hamming84.csv", "mc_manifest.json"]
    identical = all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    took = time.time() - t0
    verdict(9, identical and took < 120.0,
            f"two cmd_mc runs byte-identical across {len(files)} artifacts, {took:.1f}s")


def test_criterion_10_invariants():
    t0 = time.time()
    # CDF monotone with terminal 1.0 under a deliberately faulty config
    cfg = PpvConfig(n_chips=150, n_messages=60, q=0.5,
                    margins={k: 0.12 for k in ("XOR", "DFF", "SPLITTER", "SFQ2DC")},
                    master_seed=31)
    cdf_ok = True
    for name in SETUP_NAMES:
        series = monte_carlo(make_setup(name), cfg)
        if (np.diff(series.cdf) < 0).any() or series.cdf[-1] != 1.0:
            cdf_ok = False
    # structural fan-out-one on every synthesized netlist
    fan_ok = True
    for name in ALL_CODES:
        net = synthesize(make_code(name))
        ports = {}
        for n in net.nets:
            ports[(n.src, n.src_port)] = ports.get((n.src, n.src_port), 0) + 1
        if any(v != 1 for v in ports.values()):
            fan_ok = False
        net.validate()
    # rm13 weight-2 patterns: exactly four codewords tie at distance two
    code = make_code("rm13")
    tie_ok = True
    for flips in itertools.combinations(range(8), 2):
        r = np.zeros(8, dtype=np.uint8)
        r[list(flips)] ^= 1
        d = np.count_nonzero(code.codebook != r, axis=1)
        winners = np.flatnonzero(d == d.min())
        if d.min() != 2 or winners.size != 4 or 0 not in winners:
            tie_ok = False
    took = time.time() - t0
    verdict(10, cdf_ok and fan_ok and tie_ok and took < 5.0,
            f"CDF monotone/terminal, fan-out-one scans, rm13 28-pattern "
            f"four-way ties, {took:.2f}s")
