"""Command-line surface: artifacts, reports, exit codes."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from sfq_ecc import celllib, ppv
from sfq_ecc import netlist as nl
from sfq_ecc.cli import (
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_STRUCTURAL,
    EXIT_VALIDATION,
    main,
)
from sfq_ecc.codes import make_code
from sfq_ecc.netlist import Netlist


def run(argv):
    return main(argv)


def test_codes_report(tmp_path, capsys):
    assert run(["codes", "hamming74", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "detect_only   3     35          0        28" in out
    doc = json.loads((tmp_path / "codes_hamming74.json").read_text())
    assert doc["d_min"] == 3
    w3 = [r for r in doc["patterns"] if r["mode"] == "detect_only" and r["weight"] == 3]
    assert w3[0]["detected"] == 28 and w3[0]["total"] == 35
    assert doc["table_row"]["worst_detect"] == 1


def test_codes_hamming84_dmin(tmp_path):
    run(["codes", "hamming84", "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "codes_hamming84.json").read_text())
    assert doc["d_min"] == 4


def test_codes_unknown_exits_nonzero(tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["codes", "bogus", "--out", str(tmp_path)])
    assert e.value.code == EXIT_VALIDATION


def test_synth_writes_netlist_and_cost(tmp_path):
    assert run(["synth", "hamming84", "--out", str(tmp_path)]) == EXIT_OK
    cost = json.loads((tmp_path / "hamming84_cost.json").read_text())
    assert cost["jj_total"] == 278
    assert cost["cells"] == {"XOR": 6, "DFF": 8, "SPLITTER": 23, "SFQ2DC": 8}
    net = json.loads((tmp_path / "hamming84_netlist.json").read_text())
    assert net["version"] == 1
    assert len(net["outputs"]) == 8


def test_synth_rm13_splitters(tmp_path):
    run(["synth", "rm13", "--out", str(tmp_path)])
    cost = json.loads((tmp_path / "rm13_cost.json").read_text())
    assert cost["cells"]["SPLITTER"] == 26
    assert cost["jj_total"] == 305


def test_synth_hamming74(tmp_path):
    run(["synth", "hamming74", "--out", str(tmp_path)])
    cost = json.loads((tmp_path / "hamming74_cost.json").read_text())
    assert cost["cells"]["XOR"] == 5 and cost["cells"]["DFF"] == 8


SHIPPED_LIBRARY = (Path(celllib.__file__).parent / "data" / "cell_library.cfg").read_text()


@pytest.mark.parametrize("text", [
    "XOR.jj eleven\n",
    SHIPPED_LIBRARY.replace("XOR.jj = 11", "XOR.jj = 11.5"),
    SHIPPED_LIBRARY.replace("DFF.power_uW = 1.535935", "DFF.power_uW = nan"),
    SHIPPED_LIBRARY.replace("SPLITTER.area_mm2 = 0.005439", "SPLITTER.area_mm2 = inf"),
    SHIPPED_LIBRARY + "XOR.jj = 12\n",
], ids=["not_key_value", "fractional_jj", "nan_power", "infinite_area", "repeated_key"])
def test_synth_bad_library(tmp_path, text):
    lib = tmp_path / "broken.cfg"
    lib.write_text(text)
    assert run(["synth", "hamming84", "--library", str(lib),
                "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_simulate_timeline(tmp_path):
    run(["synth", "hamming84", "--out", str(tmp_path)])
    code = run(["simulate", str(tmp_path / "hamming84_netlist.json"),
                "--message", "1011", "--code", "hamming84",
                "--clock-ghz", "5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "timeline.csv").read_text().splitlines()
    assert lines[0] == "time_ns,net_id,value"
    cycle2 = {r.split(",")[1]: r.split(",")[2] for r in lines[1:]
              if r.startswith("0.4,")}
    assert "".join(cycle2[f"o{i}"] for i in range(8)) == "01100110"


def test_simulate_no_messages_header_only(tmp_path):
    run(["synth", "hamming74", "--out", str(tmp_path)])
    assert run(["simulate", str(tmp_path / "hamming74_netlist.json"),
                "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "timeline.csv").read_text() == "time_ns,net_id,value\n"


@pytest.mark.parametrize("code", ["hamming74", "hamming84", "rm13"])
def test_simulate_output_bytes(tmp_path, capsys, code):
    # stdout and timeline.csv rebuilt from matrix encoding, at a clock whose
    # period is no round number
    run(["synth", code, "--out", str(tmp_path)])
    capsys.readouterr()
    messages = ["1011", "0110", "1111", "0001"]
    assert run(["simulate", str(tmp_path / f"{code}_netlist.json"), "--code", code,
                *[a for m in messages for a in ("--message", m)],
                "--clock-ghz", "3.3", "--out", str(tmp_path)]) == EXIT_OK
    G = make_code(code).G
    frames = [[0] * G.shape[1]] * 2 + [list((np.array(list(m), dtype=int) @ G) % 2)
                                       for m in messages]
    stdout = ["latency: 2 cycles at 3.3 GHz", *[f"message {m}" for m in messages],
              *[f"cycle {c}: {''.join(map(str, f))}" for c, f in enumerate(frames)],
              f"timeline -> {tmp_path / 'timeline.csv'}"]
    assert capsys.readouterr().out == "\n".join(stdout) + "\n"
    csv = "time_ns,net_id,value\n" + "".join(
        f"{c * (1.0 / 3.3):.6g},o{j},{b}\n" for c, f in enumerate(frames)
        for j, b in enumerate(f))
    assert (tmp_path / "timeline.csv").read_text() == csv


def test_simulate_long_stream_bytes(tmp_path):
    # a long stream through the rows of to_timeline: 2,000 messages give (2000 + 2) cycles
    # of 8 outputs, one CSV line each, and the header
    run(["synth", "hamming84", "--out", str(tmp_path)])
    stream = [a for i in range(2000) for a in ("--message", format(i % 16, "04b"))]
    assert run(["simulate", str(tmp_path / "hamming84_netlist.json"), *stream,
                "--out", str(tmp_path / "stream")]) == EXIT_OK
    data = (tmp_path / "stream" / "timeline.csv").read_bytes()
    assert data.count(b"\n") == 16017
    assert hashlib.sha256(data).hexdigest() == (
        "118756a828cc186920df462b16e8e35e2c1da862b1d840b5858ad7d79db6bed6")


@pytest.mark.parametrize("clock", ["nan", "inf", "-inf", "1e-320"])
def test_simulate_rejects_non_finite_clock(tmp_path, clock):
    run(["synth", "hamming84", "--out", str(tmp_path)])
    assert run(["simulate", str(tmp_path / "hamming84_netlist.json"), "--message", "1011",
                f"--clock-ghz={clock}", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert not (tmp_path / "timeline.csv").exists()


def test_simulate_corrupt_netlist(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{this is not json")
    assert run(["simulate", str(bad), "--out", str(tmp_path)]) == EXIT_STRUCTURAL


def test_simulate_unknown_cell_kind(tmp_path):
    run(["synth", "hamming74", "--out", str(tmp_path)])
    path = tmp_path / "hamming74_netlist.json"
    doc = json.loads(path.read_text())
    doc["cells"][0]["kind"] = "NAND"
    path.write_text(json.dumps(doc))
    assert run(["simulate", str(path), "--out", str(tmp_path)]) == EXIT_STRUCTURAL


ONE_CONVERTER = {"version": 1, "cells": [{"id": "m1", "kind": "INPUT"},
                                        {"id": "o0", "kind": "SFQ2DC"}],
                 "nets": [{"from": "m1:0", "to": "o0:0"}], "outputs": ["o0"], "inputs": ["m1"]}


def test_simulate_one_converter(tmp_path):
    # the well-formed netlist the malformed cases below start from
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ONE_CONVERTER))
    assert run(["simulate", str(path), "--out", str(tmp_path)]) == EXIT_OK


@pytest.mark.parametrize("doc", [
    {"version": 1},
    [],
    {"version": 1, "cells": [{"id": "m1"}], "nets": [], "outputs": []},
    {"version": 1, "cells": [{"id": "m1", "kind": "INPUT"}, {"id": "o0", "kind": "SFQ2DC"}],
     "nets": [{"from": "m1", "to": "o0:0"}], "outputs": ["o0"], "inputs": ["m1"]},
    {"version": 1, "cells": [{"id": "m1", "kind": ["INPUT"]}], "nets": [], "outputs": []},
    {"version": 1, "cells": [{"id": "m1", "kind": "INPUT"}], "nets": [], "outputs": [["m1"]]},
    # a version that only compares equal to 1, and a name that is not a string
    {**ONE_CONVERTER, "version": True},
    {**ONE_CONVERTER, "version": 1.0},
    {**ONE_CONVERTER, "name": 7},
    # a clock that is not a cell id but is falsy, which raised TypeError from compile
    {**ONE_CONVERTER, "clock": []},
    {**ONE_CONVERTER, "clock": 0},
])
def test_simulate_malformed_netlist_json(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["simulate", str(path), "--out", str(tmp_path)]) == EXIT_STRUCTURAL
    assert "structural error:" in capsys.readouterr().err


def cells(*spec):
    """Cell entries from (id, kind) or (id, kind, role) tuples."""
    return [{"id": c[0], "kind": c[1], **({"role": c[2]} if len(c) > 2 else {})} for c in spec]


def nets(*pairs):
    return [{"from": src, "to": dst} for src, dst in pairs]


ONE_DFF = {"version": 1, "cells": cells(("m1", "INPUT"), ("clk", "CLOCK_INPUT"), ("d0", "DFF"),
                                        ("o0", "SFQ2DC")),
           "nets": nets(("m1:0", "d0:0"), ("clk:0", "d0:clk"), ("d0:0", "o0:0")),
           "outputs": ["o0"], "inputs": ["m1"], "clock": "clk"}


@pytest.mark.parametrize("doc, message", [
    ({**ONE_CONVERTER, "cells": cells(("m1", "INPUT"), ("o0", "SFQ2DC"), ("o0", "SFQ2DC"))},
     "duplicate cell id 'o0'"),
    ({**ONE_CONVERTER, "nets": nets(("m1:0", "o9:0"))},
     "net references unknown cell: Net(src='m1', src_port=0, dst='o9', dst_pin=0)"),
    ({**ONE_CONVERTER, "cells": cells(("m1", "INPUT"), ("o0", "SFQ2DC"), ("o1", "SFQ2DC")),
      "nets": nets(("m1:0", "o0:0"), ("m1:0", "o1:0")), "outputs": ["o0", "o1"]},
     "fan-out above one at output port ('m1', 0)"),
    ({**ONE_DFF, "cells": ONE_DFF["cells"] + cells(("s0", "SPLITTER", "clock")),
      "nets": nets(("m1:0", "d0:0"), ("clk:0", "s0:0"), ("s0:0", "d0:clk"), ("s0:1", "d0:clk"),
                   ("d0:0", "o0:0"))},
     "more than one driver on input pin ('d0', 'clk')"),
    ({**ONE_DFF, "cells": ONE_DFF["cells"] + cells(("m2", "INPUT"), ("o1", "SFQ2DC")),
      "nets": ONE_DFF["nets"] + nets(("m2:0", "o1:0")), "outputs": ["o0", "o1"],
      "inputs": ["m1", "m2"]},
     "outputs at unequal depths [0, 1]"),
])
def test_simulate_structural_errors(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["simulate", str(path), "--out", str(tmp_path)]) == EXIT_STRUCTURAL
    assert capsys.readouterr().err == f"structural error: {message}\n"


def test_simulate_one_dff(tmp_path):
    # the well-formed clocked netlist two structural cases start from
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ONE_DFF))
    assert run(["simulate", str(path), "--out", str(tmp_path)]) == EXIT_OK


def test_simulate_code_of_another_length(tmp_path, capsys):
    # no message shows a width mismatch, so the error names both widths
    run(["synth", "hamming74", "--out", str(tmp_path)])
    capsys.readouterr()
    assert run(["simulate", str(tmp_path / "hamming74_netlist.json"), "--code", "rm13",
                "--message", "1011", "--out", str(tmp_path)]) == EXIT_STRUCTURAL
    assert capsys.readouterr().err == ("structural error: netlist hamming74_encoder has 7 "
                                       "outputs, but rm13 codewords have 8 bits\n")
    assert not (tmp_path / "timeline.csv").exists()


def test_simulate_code_disagreeing_netlist(tmp_path, capsys):
    # two codes of one length: the error names the first message whose codewords differ
    run(["synth", "rm13", "--out", str(tmp_path)])
    capsys.readouterr()
    assert run(["simulate", str(tmp_path / "rm13_netlist.json"), "--code", "hamming84",
                "--out", str(tmp_path)]) == EXIT_STRUCTURAL
    assert capsys.readouterr().err == "netlist disagrees with hamming84 encoding on message 0001\n"


def gated_clock_pin():
    """m2 through a data splitter into the clock pin of d0 and the data pin of d1."""
    net = Netlist("gated")
    net.add_cell("m1", nl.INPUT)
    net.add_cell("m2", nl.INPUT)
    net.inputs = ["m1", "m2"]
    net.clock = net.add_cell("clk", nl.CLOCK_INPUT)
    net.add_cell("d0", nl.DFF)
    net.add_cell("d1", nl.DFF)
    net.add_cell("s0", nl.SPLITTER, role="data")
    net.connect("m1", "d0")
    net.connect("m2", "s0")
    net.connect("s0", "d0", src_port=0, dst_pin="clk")
    net.connect("s0", "d1", src_port=1)
    net.connect("clk", "d1", dst_pin="clk")
    net.outputs = [net.add_cell("o0", nl.SFQ2DC), net.add_cell("o1", nl.SFQ2DC)]
    net.connect("d0", "o0")
    net.connect("d1", "o1")
    return net


def clock_into_converter_data_pin():
    net = Netlist("clock_data")
    net.inputs = [net.add_cell("m1", nl.INPUT)]
    net.clock = net.add_cell("clk", nl.CLOCK_INPUT)
    net.outputs = [net.add_cell("o0", nl.SFQ2DC)]
    net.connect("clk", "o0")
    return net


@pytest.mark.parametrize("build", [gated_clock_pin, clock_into_converter_data_pin])
def test_simulate_rejects_mixed_clock_and_data(tmp_path, build):
    net, path = build(), tmp_path / "mixed.json"
    path.write_text(net.to_json())
    assert run(["simulate", str(path), "--message", "1" * len(net.inputs),
                "--out", str(tmp_path)]) == EXIT_STRUCTURAL
    assert not (tmp_path / "timeline.csv").exists()


def test_mc_no_faults_all_perfect(tmp_path):
    cfg = {"spread": 0.2, "q": 0.5,
           "margins": {"XOR": 0.2, "DFF": 0.2, "SPLITTER": 0.2, "SFQ2DC": 0.2},
           "master_seed": 5, "n_chips": 30, "n_messages": 20}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["mc", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
    manifest = json.loads((tmp_path / "mc_manifest.json").read_text())
    for name, rec in manifest["runs"].items():
        assert rec["zero_error_prob"] == 1.0
    first = (tmp_path / "cdf_none.csv").read_text().splitlines()
    assert first[0] == "n,cdf" and first[1] == "0,1"


def test_mc_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["mc", "--seed", "42", "--chips", "40", "--messages", "25",
                    "--out", str(out)]) == EXIT_OK
    for fname in ("cdf_none.csv", "cdf_rm13.csv", "cdf_hamming74.csv",
                  "cdf_hamming84.csv", "mc_manifest.json"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_mc_table_prints_wilson_intervals(tmp_path, capsys):
    # a P(zero errors) from 40 chips was printed as if it were exact
    assert run(["mc", "--seed", "42", "--chips", "40", "--messages", "25",
                "--out", str(tmp_path)]) == EXIT_OK
    runs = json.loads((tmp_path / "mc_manifest.json").read_text())["runs"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["configuration", "P(zero", "errors)", "95%", "Wilson", "interval"]
    z, n = 1.959963984540054, 40
    for line, name in zip(lines[1:], ppv.SETUP_NAMES):
        shown, p, lo, hi = re.fullmatch(r"(\S+) +(\S+)  \[(\S+), (\S+)\]", line).groups()
        got = runs[shown]["zero_error_prob"]
        assert shown == name and p == f"{got:.3f}"
        # the interval's ends are the p with |got - p| = z * sqrt(p (1 - p) / n)
        ends = sorted(np.roots([n + z * z, -(2 * n * got + z * z), n * got * got]).real)
        assert (lo, hi) == tuple(f"{e:.3f}" for e in ends)
        assert float(lo) <= got <= float(hi)
    assert lines[len(ppv.SETUP_NAMES) + 1].startswith("CDFs and manifest")


def test_mc_runs_each_named_configuration_once(tmp_path, capsys, monkeypatch):
    # a configuration named twice was run twice and printed two table rows
    runs = []
    monte_carlo = ppv.monte_carlo

    def counted(setup, cfg, chips):
        runs.append(setup.name)
        return monte_carlo(setup, cfg, chips)

    monkeypatch.setattr(ppv, "monte_carlo", counted)
    assert run(["mc", "--codes", "rm13", "none", "rm13", "--chips", "5", "--messages", "3",
                "--out", str(tmp_path)]) == EXIT_OK
    assert runs == ["rm13", "none"]
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert rows == ["rm13", "none"]
    assert list(json.loads((tmp_path / "mc_manifest.json").read_text())["runs"]) == [
        "none", "rm13"]


def test_mc_codes_without_names_is_a_usage_error(tmp_path, capsys):
    # an empty list was taken for an absent flag, and all four configurations ran
    with pytest.raises(SystemExit) as e:
        run(["mc", "--codes", "--chips", "5", "--messages", "3", "--out", str(tmp_path)])
    assert e.value.code == EXIT_VALIDATION
    assert "argument --codes: expected at least one argument" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_mc_rejects_bad_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"spread": -1}))
    assert run(["mc", "--config", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_mc_out_of_memory_is_an_error(tmp_path, capsys, monkeypatch):
    # a huge --messages ended in a numpy allocation traceback
    def too_large(setup, cfg, chips):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(ppv, "monte_carlo", too_large)
    assert run(["mc", "--codes", "none", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 745. GiB\n"


@pytest.mark.parametrize("case", [
    ["--chips", "0"],
    ["--messages", "0"],
    ["--chips", "1000000000000000000000"],  # numpy's "Maximum allowed dimension exceeded"
    {"bogus": 1},
    {"tie_break": "bogus"},
    {"q": "0.1"},
    {"spread": None},
    {"margins": ["XOR"]},
    {"margins": {"XOR": "0.1", "DFF": 0.1, "SPLITTER": 0.1, "SFQ2DC": 0.1}},
    {"count_detected_errors": "no"},
    {"clock_faults": 1},
    {"n_chips": True},
    {"n_messages": 10.0},
    {"master_seed": "7"},
    [{"q": 0.1}],
    {"margins": {"XOR": 0.1, "DFF": 0.1, "SPLITTER": 0.1, "SFQ2DC": 0.1, "BOGUS": 0.01}},
    {"margins": {"XOR": float("inf"), "DFF": 0.1, "SPLITTER": 0.1, "SFQ2DC": 0.1}},
    {"margins": {"XOR": 10**400, "DFF": 0.1, "SPLITTER": 0.1, "SFQ2DC": 0.1}},
    ["--seed", "2147483648"],  # beyond the count rule, where seeds share chips
])
def test_mc_rejects_empty_runs_and_unknown_keys(tmp_path, case):
    argv = ["mc", "--out", str(tmp_path)]
    if not isinstance(case, list) or not isinstance(case[0], str):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(case))
        argv += ["--config", str(path)]
    else:
        argv += case
    assert run(argv) == EXIT_VALIDATION
    assert not list(tmp_path.glob("cdf_*.csv"))


def test_calibrate_trivial_targets(tmp_path):
    code = run(["calibrate", "--targets", "1,1,1,1", "--chips", "60",
                "--search-chips", "40", "--refine-rounds", "0",
                "--out", str(tmp_path)])
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "ppv_calibrated.json").read_text())
    assert doc["converged"]
    assert doc["max_abs_dev"] == 0.0
    # no-fault configuration: margins at the spread
    assert all(v == pytest.approx(doc["config"]["spread"])
               for v in doc["config"]["margins"].values())


def test_calibrate_unreachable_targets_flagged(tmp_path):
    code = run(["calibrate", "--targets", "0,0,0,0", "--chips", "40",
                "--search-chips", "30", "--refine-rounds", "0",
                "--out", str(tmp_path)])
    assert code == EXIT_NONCONVERGED
    doc = json.loads((tmp_path / "ppv_calibrated.json").read_text())
    assert not doc["converged"]  # config still written, with a warning


def test_calibrate_rejects_negative_refine_rounds(tmp_path):
    assert run(["calibrate", "--refine-rounds", "-1", "--chips", "40",
                "--search-chips", "30", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert not (tmp_path / "ppv_calibrated.json").exists()


def test_calibrate_rejects_non_integer_refine_rounds(tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["calibrate", "--refine-rounds", "1.5", "--out", str(tmp_path)])
    assert e.value.code == EXIT_VALIDATION
    assert not (tmp_path / "ppv_calibrated.json").exists()


def test_calibrate_malformed_targets(tmp_path):
    assert run(["calibrate", "--targets", "0.9,0.9", "--out", str(tmp_path)]) \
        == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [["mc", "--config", ""], ["synth", "hamming74", "--library", ""],
                                  ["calibrate", "--targets", ""]], ids=["config", "library", "targets"])
def test_empty_flag_value_is_an_error(tmp_path, capsys, argv):
    # an empty value was taken for an absent flag: the shipped config, library or targets;
    # then an empty path was read as the current directory ("Is a directory: '.'")
    assert run(argv + ["--out", str(tmp_path)]) == EXIT_VALIDATION
    assert not list(tmp_path.iterdir())
    message = f"{argv[-2]} is empty; give a value or leave the flag out"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SFQ_ECC_OUT", str(tmp_path / "envout"))
    assert run(["codes", "rm13"]) == EXIT_OK
    assert (tmp_path / "envout" / "codes_rm13.json").exists()
