"""Cycle-accurate simulation: latency, pipelining, timeline export."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfq_ecc import netlist as nl
from sfq_ecc.codes import encode, make_code
from sfq_ecc.netlist import Netlist, StructuralError
from sfq_ecc.sim import (
    SimResult,
    latency,
    message_frames,
    simulate,
    to_timeline,
    verify_equivalence,
)
from sfq_ecc.ppv import SETUP_NAMES, make_setup, no_encoder
from sfq_ecc.synth import synthesize


def run_messages(net, messages, cycles=None):
    return simulate(net, message_frames(net, messages), cycles=cycles)


@functools.cache
def encoder(name):
    """(netlist, generator) of a code's encoder; "none" is the uncoded wire."""
    if name == "none":
        return no_encoder(), np.eye(4, dtype=np.uint8)
    code = make_code(name)
    return synthesize(code), code.G


def test_figure_vector_appears_after_two_cycles():
    net = synthesize(make_code("hamming84"))
    res = run_messages(net, [np.array([1, 0, 1, 1])])
    assert res.latency == 2
    assert "".join(map(str, res.outputs[2])) == "01100110"


def test_zero_message_zero_outputs():
    net = synthesize(make_code("rm13"))
    res = run_messages(net, [np.zeros(4, dtype=np.uint8)], cycles=5)
    for frame in res.outputs:
        assert not frame.any()


def test_back_to_back_messages():
    net = synthesize(make_code("hamming84"))
    res = run_messages(net, [np.array([1, 0, 1, 1]), np.zeros(4, dtype=np.uint8)])
    assert "".join(map(str, res.outputs[2])) == "01100110"
    assert "".join(map(str, res.outputs[3])) == "00000000"


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["none", "hamming74", "hamming84", "rm13"]),
       msgs=arrays(np.uint8, st.tuples(st.integers(0, 40), st.just(4)),
                   elements=st.integers(0, 1)),
       cycles=st.one_of(st.none(), st.integers(0, 50)))
def test_pipeline_matches_per_cycle_encoding(name, msgs, cycles):
    # the stream is (msgs @ G) % 2 delayed by the latency, zero elsewhere
    net, G = encoder(name)
    res = run_messages(net, msgs, cycles=cycles)
    lat = res.latency
    total = len(msgs) + lat if cycles is None else cycles
    want = np.zeros((total, G.shape[1]), dtype=np.uint8)
    shown = max(0, min(len(msgs), total - lat))
    want[lat:lat + shown] = ((msgs @ G) % 2)[:shown]
    assert lat == (0 if name == "none" else 2)
    got = np.asarray(res.outputs)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert np.array_equal(got, want)


def test_message_frames_rejects_wrong_width():
    net = synthesize(make_code("hamming84"))
    for bad in (np.zeros((3, 5), dtype=np.uint8), [np.zeros(4), np.zeros(3)],
                np.array([1, 0, 1, 1])):
        with pytest.raises(ValueError, match="message length"):
            message_frames(net, bad)
    with pytest.raises(ValueError, match="rows of 4 bits"):
        message_frames(net, np.zeros((1, 2, 2), dtype=np.uint8))
    for empty in ([], np.zeros((0, 4), dtype=np.int64)):
        got = message_frames(net, empty)
        assert got.dtype == np.uint8 and got.shape == (0, 4)
    got = message_frames(net, [[1, 0, 1, 1]])
    assert got.dtype == np.uint8 and got.tolist() == [[1, 0, 1, 1]]


@pytest.mark.parametrize("bad", [[[2, 0, 0, 0]], [[0.5, 1, 1, 1]], [[256, 0, 0, 0]],
                                 [[1, 0, -1, 0]], [[1, 0, float("nan"), 0]],
                                 [["1", "0", "1", "1"]]])
def test_message_frames_rejects_non_bits(bad):
    # a cast first would wrap 256 to 0 and truncate 0.5 to 0
    net = synthesize(make_code("hamming84"))
    with pytest.raises(ValueError, match="0 or 1"):
        message_frames(net, bad)
    with pytest.raises(ValueError, match="0 or 1"):
        simulate(net, bad)


def test_frame_column_drives_the_listed_input():
    net = synthesize(make_code("hamming84"))
    want = run_messages(net, [[1, 0, 0, 0]]).outputs
    net.inputs = net.inputs[::-1]
    assert np.array_equal(run_messages(net, [[0, 0, 0, 1]]).outputs, want)


@pytest.mark.parametrize("name", ["hamming74", "hamming84", "rm13"])
def test_latency_two_cycles(name):
    assert latency(synthesize(make_code(name))) == 2


def test_latency_single_dff():
    net = Netlist("one_dff")
    net.add_cell("m1", nl.INPUT)
    net.inputs = ["m1"]
    d = net.add_cell("d0", nl.DFF)
    net.connect("m1", d)
    o = net.add_cell("o0", nl.SFQ2DC)
    net.connect(d, o)
    net.outputs = [o]
    assert latency(net) == 1
    res = run_messages(net, [np.array([1])], cycles=3)
    assert [int(f[0]) for f in res.outputs] == [0, 1, 0]


def test_latency_is_input_independent():
    net = synthesize(make_code("hamming84"))
    rng = np.random.default_rng(0)
    for _ in range(5):
        res = run_messages(net, [rng.integers(0, 2, 4).astype(np.uint8)])
        assert res.latency == 2


@pytest.mark.parametrize("name", ["hamming74", "hamming84", "rm13"])
def test_verify_equivalence(name):
    code = make_code(name)
    ok, cex = verify_equivalence(synthesize(code), code)
    assert ok and cex is None


def test_verify_equivalence_catches_swapped_nets():
    code = make_code("hamming84")
    net = synthesize(code)
    # cross the inputs of two converters
    a = net.driver_of("o0")
    b = net.driver_of("o2")
    net.nets.remove(a)
    net.nets.remove(b)
    net.connect(a.src, "o2", src_port=a.src_port)
    net.connect(b.src, "o0", src_port=b.src_port)
    ok, cex = verify_equivalence(net, code)
    assert not ok
    assert cex is not None
    assert not np.array_equal(
        simulate(net, message_frames(net, [cex])).outputs[2], encode(code, cex))


def test_rewired_netlist_is_recompiled():
    # a netlist mutated after it was simulated must not reuse its old program
    net = synthesize(make_code("hamming84"))
    m = np.array([1, 0, 1, 1])
    before = run_messages(net, [m]).outputs[2].tolist()
    a = net.driver_of("o0")
    b = net.driver_of("o2")
    net.nets.remove(a)
    net.nets.remove(b)
    net.connect(a.src, "o2", src_port=a.src_port)
    net.connect(b.src, "o0", src_port=b.src_port)
    after = run_messages(net, [m]).outputs[2].tolist()
    before[0], before[2] = before[2], before[0]
    assert after == before != [0, 1, 1, 0, 0, 1, 1, 0]


def two_input_xor(name, first_delay):
    """m1 (through ``first_delay`` DFFs) and m2 (through one) into one XOR."""
    net = Netlist(name)
    net.add_cell("m1", nl.INPUT)
    net.add_cell("m2", nl.INPUT)
    net.inputs = ["m1", "m2"]
    src = "m1"
    for i in range(first_delay):
        net.connect(src, net.add_cell(f"a{i}", nl.DFF))
        src = f"a{i}"
    net.connect(src, net.add_cell("x0", nl.XOR), dst_pin=0)
    net.connect("m2", net.add_cell("b0", nl.DFF))
    net.connect("b0", "x0", dst_pin=1)
    net.outputs = ["x0"]
    return net


def test_unbalanced_netlist_rejected_after_balanced_namesake():
    balanced = two_input_xor("pair", first_delay=1)
    balanced.validate()
    assert latency(balanced) == 2
    with pytest.raises(StructuralError, match="unbalanced"):
        two_input_xor("pair", first_delay=2).validate()


def test_cycle_is_reported():
    net = Netlist("loop")
    net.add_cell("m1", nl.INPUT)
    net.inputs = ["m1"]
    net.add_cell("x0", nl.XOR)
    net.add_cell("s0", nl.SPLITTER)
    net.connect("m1", "x0", dst_pin=0)
    net.connect("x0", "s0")
    net.connect("s0", "x0", src_port=0, dst_pin=1)
    net.add_cell("o0", nl.SFQ2DC)
    net.connect("s0", "o0", src_port=1)
    net.outputs = ["o0"]
    with pytest.raises(StructuralError, match="cycle through (x0 -> s0 -> x0|s0 -> x0 -> s0)"):
        net.validate()


@pytest.mark.parametrize("name", SETUP_NAMES)
def test_program_order_puts_drivers_first(name):
    prog = nl.compile(make_setup(name).netlist)
    assert sorted(prog.order) == list(range(len(prog.cell_ids)))
    at = {cell: pos for pos, cell in enumerate(prog.order)}
    for i, slots in enumerate(prog.drivers):
        clock = () if prog.clock[i] is None else (prog.clock[i],)
        assert all(at[slot >> 1] < at[i] for slot in (*slots, *clock))


def test_unbalanced_netlist_fails_before_simulation():
    net = Netlist("lopsided")
    net.add_cell("m1", nl.INPUT)
    net.add_cell("m2", nl.INPUT)
    net.inputs = ["m1", "m2"]
    d = net.add_cell("d0", nl.DFF)
    net.connect("m1", d)
    x = net.add_cell("x0", nl.XOR)
    net.connect(d, x, dst_pin=0)
    net.connect("m2", x, dst_pin=1)
    net.outputs = [x]
    with pytest.raises(StructuralError):
        simulate(net, [])


def test_timeline_figure_alignment():
    # 5 GHz, injection at 0.1 ns: the second clock edge lands at 0.4 ns
    net = synthesize(make_code("hamming84"))
    res = run_messages(net, [np.array([1, 0, 1, 1])])
    rows = to_timeline(res, clock_ghz=5.0, epoch_ns=0.1)
    at_04 = [(oid, v) for (t, oid, v) in rows if t == pytest.approx(0.4)]
    assert dict(at_04) == {f"o{i}": int(b) for i, b in enumerate("01100110")}


def test_timeline_period_scaling():
    net = synthesize(make_code("hamming84"))
    res = run_messages(net, [np.array([1, 0, 1, 1])])
    rows = to_timeline(res, clock_ghz=1.0)
    stamps = sorted({t for t, _, _ in rows})
    assert stamps[:3] == [pytest.approx(0.0), pytest.approx(1.0), pytest.approx(2.0)]


def test_timeline_zero_latency_injection_epoch():
    net = Netlist("wire")
    net.add_cell("m1", nl.INPUT)
    net.inputs = ["m1"]
    o = net.add_cell("o0", nl.SFQ2DC)
    net.connect("m1", o)
    net.outputs = [o]
    res = run_messages(net, [np.array([1])], cycles=1)
    assert res.latency == 0
    rows = to_timeline(res, clock_ghz=5.0)
    assert rows == [(pytest.approx(0.0), "o0", 1)]


def test_timeline_rejects_bad_clock():
    net = synthesize(make_code("hamming84"))
    res = run_messages(net, [np.zeros(4, dtype=np.uint8)])
    with pytest.raises(ValueError):
        to_timeline(res, clock_ghz=0.0)


@pytest.mark.parametrize("clock_ghz,epoch_ns", [(float("nan"), 0.0), (float("inf"), 0.0),
                                                (5.0, float("nan")), (5.0, float("-inf")),
                                                (1e-320, 0.0), (1e308, 1e3)])
def test_timeline_rejects_non_finite_clock_or_epoch(clock_ghz, epoch_ns):
    # nan stamped every row nan, an infinite clock stamped every row 0, and
    # a period or epoch / period beyond the float range gave nan or inf stamps
    net = synthesize(make_code("hamming84"))
    res = run_messages(net, [np.zeros(4, dtype=np.uint8)])
    with pytest.raises(ValueError, match="finite"):
        to_timeline(res, clock_ghz, epoch_ns)


@pytest.mark.parametrize("clock_ghz, epoch_ns, name", [("5", 0.0, "clock_ghz"),
                                                      (5.0, "0", "epoch_ns")])
def test_timeline_rejects_a_clock_or_epoch_that_is_not_a_number(clock_ghz, epoch_ns, name):
    # a string raised TypeError from np.isfinite
    res = run_messages(encoder("hamming74")[0], [np.zeros(4, dtype=np.uint8)])
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        to_timeline(res, clock_ghz, epoch_ns)


@pytest.mark.parametrize("cycles", [-1, 1.5, True])
def test_simulate_rejects_cycles_that_are_not_a_count(cycles):
    # -1 failed in numpy ("negative dimensions"), 1.5 and True raised TypeError
    net = encoder("hamming74")[0]
    with pytest.raises(ValueError, match="cycles must be a non-negative integer"):
        simulate(net, np.zeros((1, 4), dtype=np.uint8), cycles=cycles)


def test_timeline_rejects_ids_that_do_not_match_the_outputs():
    # a flat row layout would pair every later bit with the wrong id
    res = SimResult(outputs=np.zeros((3, 4), dtype=np.uint8), latency=0,
                    output_ids=["o0", "o1", "o2"])
    with pytest.raises(ValueError, match="output ids"):
        to_timeline(res, clock_ghz=5.0)


def reference_timeline(result, clock_ghz, epoch_ns=0.0):
    """The per-bit comprehension ``to_timeline`` was built on, kept as its oracle."""
    period = 1.0 / clock_ghz
    base = np.floor(epoch_ns / period) * period if epoch_ns else 0.0
    stamps = [base + t * period for t in range(len(result.outputs))]
    return [(stamp, oid, bit)
            for stamp, frame in zip(stamps, np.asarray(result.outputs).tolist())
            for oid, bit in zip(result.output_ids, frame)]


@settings(max_examples=150, deadline=None)
@given(outputs=arrays(np.uint8, st.tuples(st.integers(0, 30), st.integers(1, 8)),
                      elements=st.integers(0, 1)),
       dtype=st.sampled_from([np.uint8, np.bool_, np.int64]),
       clock_ghz=st.floats(1e-3, 1e3),
       epoch_ns=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
       data=st.data())
def test_timeline_matches_per_bit_reference(outputs, dtype, clock_ghz, epoch_ns, data):
    res = SimResult(outputs=outputs.astype(dtype), latency=0,
                    output_ids=[f"o{i}" for i in range(outputs.shape[1])])
    reference = reference_timeline(res, clock_ghz, epoch_ns)
    rows = to_timeline(res, clock_ghz, epoch_ns)
    again = to_timeline(res, clock_ghz, epoch_ns)
    # the view is a snapshot: later changes to the result change no row
    res.outputs[...] ^= True
    res.output_ids[0] = "x"

    def typed(rs):  # rows with the types of their id and bit (bool for bool outputs)
        return [(r, type(r[1]), type(r[2])) for r in rs]

    n, width = len(reference), outputs.shape[1]
    assert len(rows) == n and repr(rows) == f"<Timeline of {n} rows>"
    assert rows == reference and reference == rows and rows == again and again == rows
    assert rows != reference + [()] and reference + [()] != rows
    first = list(rows)
    assert typed(first) == typed(list(rows)) == typed(reference)  # iterated twice
    for i in range(n):
        assert typed([rows[i], rows[i - n]]) == typed([reference[i]] * 2)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[i]
    ends = st.none() | st.integers(-n - 2, n + 2)
    for _ in range(4):
        cut = slice(data.draw(ends), data.draw(ends), data.draw(st.sampled_from(
            [None, 1, 2, 3, -1, -2, -3])))
        assert typed(rows[cut]) == typed(reference[cut]), cut
    for c in range(len(outputs)):  # the rows of a cycle share one plain float
        cycle = first[c * width:(c + 1) * width]
        assert type(cycle[0][0]) is float and all(r[0] is cycle[0][0] for r in cycle)
        assert all(rows[c * width + j][0] is cycle[0][0] for j in range(width))


def test_timeline_of_10k_messages_holds_under_1_mb():
    # a list of rows held ~6 MB: a 3-tuple per output bit
    msgs = np.random.default_rng(0).integers(0, 2, (10_000, 4), dtype=np.uint8)
    res = simulate(encoder("hamming84")[0], msgs)
    tracemalloc.start()
    try:
        rows = to_timeline(res, clock_ghz=5.0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == 10_002 * 8 and held < 1_000_000
