"""Synthesis pipeline: shared-XOR decomposition, balancing, splitters, clock."""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sfq_ecc import netlist as nl
from sfq_ecc.codes import LinearCode, boolean_forms, encode, make_code
from sfq_ecc.netlist import Netlist, StructuralError
from sfq_ecc.sim import verify_equivalence
from sfq_ecc.synth import (
    attach_converters,
    balance,
    build_dag,
    clock_tree,
    place_splitters,
    synthesize,
)

# reference cell tallies: (xor, dff, data splitters, clock splitters, converters)
GOLDEN = {
    "hamming84": (6, 8, 10, 13, 8),
    "hamming74": (5, 8, 8, 12, 7),
    "rm13": (8, 7, 12, 14, 8),
}


class _Form:
    def __init__(self, terms):
        self.terms = terms


# --- build_dag ----------------------------------------------------------------

@pytest.mark.parametrize("name", GOLDEN)
def test_dag_node_counts_and_depth(name):
    dag = build_dag(boolean_forms(make_code(name)))
    assert len(dag.nodes) == GOLDEN[name][0]
    assert dag.depth == 2


def test_dag_passthrough_only():
    dag = build_dag([_Form((0,))])
    assert len(dag.nodes) == 0
    assert dag.outputs == [("m", 0)]
    assert dag.depth == 0


def test_dag_empty_form_rejected():
    with pytest.raises(ValueError):
        build_dag([_Form(())])


def test_dag_truth_table_equivalence():
    for name in GOLDEN:
        code = make_code(name)
        dag = build_dag(boolean_forms(code))
        for m in range(16):
            msg = code.messages[m]
            assert np.array_equal(dag.eval_message(msg), encode(code, msg)), (name, m)


# --- balance -------------------------------------------------------------------

@pytest.mark.parametrize("name", GOLDEN)
def test_dff_counts(name):
    net = balance(build_dag(boolean_forms(make_code(name))))
    assert sum(1 for c in net.cells.values() if c.kind == nl.DFF) == GOLDEN[name][1]


def test_depth_zero_dag_needs_no_dffs():
    net = balance(build_dag([_Form((0,)), _Form((1,))]))
    assert sum(1 for c in net.cells.values() if c.kind == nl.DFF) == 0


# --- splitters and clock ---------------------------------------------------------

@pytest.mark.parametrize("name", GOLDEN)
def test_data_splitter_counts(name):
    net = place_splitters(balance(build_dag(boolean_forms(make_code(name)))))
    assert net.counts()["data_splitters"] == GOLDEN[name][2]


def test_single_sink_needs_no_splitter():
    net = place_splitters(balance(build_dag([_Form((0,))])))
    assert net.counts()["SPLITTER"] == 0


@pytest.mark.parametrize("name", GOLDEN)
def test_clock_splitter_counts(name):
    net = clock_tree(place_splitters(balance(build_dag(boolean_forms(make_code(name))))))
    assert net.counts()["clock_splitters"] == GOLDEN[name][3]


def test_single_clocked_cell_no_clock_splitters():
    net = Netlist("one_dff")
    net.add_cell("m1", nl.INPUT)
    net.inputs = ["m1"]
    d = net.add_cell("d0", nl.DFF)
    net.connect("m1", d)
    net.outputs = [d]
    clock_tree(net)
    assert net.counts()["clock_splitters"] == 0
    assert net.clock == "clk"


def test_clock_tree_noop_without_clocked_cells():
    net = Netlist("wires")
    net.add_cell("m1", nl.INPUT)
    net.inputs = ["m1"]
    net.outputs = ["m1"]
    clock_tree(net)
    assert net.clock is None


# --- converters and full synthesis ------------------------------------------------

@pytest.mark.parametrize("name", GOLDEN)
def test_converter_counts(name):
    assert synthesize(make_code(name)).counts()["SFQ2DC"] == GOLDEN[name][4]


@pytest.mark.parametrize("name", GOLDEN)
def test_synthesize_full_tally(name):
    counts = synthesize(make_code(name)).counts()
    x, d, sd, sc, o = GOLDEN[name]
    assert counts == {"XOR": x, "DFF": d, "SPLITTER": sd + sc, "SFQ2DC": o,
                      "data_splitters": sd, "clock_splitters": sc}


def test_total_splitter_arithmetic():
    for name in GOLDEN:
        net = synthesize(make_code(name))
        counts = net.counts()
        clocked = counts["XOR"] + counts["DFF"]
        assert counts["clock_splitters"] == clocked - 1
        assert counts["SPLITTER"] == counts["data_splitters"] + clocked - 1


def test_fanout_one_everywhere():
    for name in GOLDEN:
        net = synthesize(make_code(name))
        per_port = {}
        for n in net.nets:
            key = (n.src, n.src_port)
            per_port[key] = per_port.get(key, 0) + 1
        assert all(v == 1 for v in per_port.values())
        net.validate()


def test_every_path_crosses_two_clocked_cells():
    for name in GOLDEN:
        net = synthesize(make_code(name))
        assert net.depth() == 2  # validate() inside already rejects imbalance


@st.composite
def full_rank_codes(draw):
    """Generators with k <= 4, n <= 8, no zero column and full rank."""
    k = draw(st.integers(1, 4))
    cols = draw(st.lists(st.integers(1, 2**k - 1), min_size=k, max_size=8))
    G = np.array([[(c >> i) & 1 for c in cols] for i in range(k)], dtype=np.uint8)
    try:
        return LinearCode("random", G)
    except ValueError:  # rank below k
        reject()


@settings(max_examples=60, deadline=None)
@given(code=full_rank_codes())
# equal generator columns: codeword bits sharing a port need a splitter
@example(code=LinearCode("rep", [[1, 1, 1]]))
@example(code=LinearCode("shared", [[1, 0, 1, 1], [0, 1, 1, 1]]))
def test_random_codes_synthesize_and_round_trip(code):
    net = synthesize(code)
    assert verify_equivalence(net, code) == (True, None)
    back = Netlist.from_json(net.to_json())
    assert back.content_hash() == net.content_hash()
    assert nl.compile(back) is nl.compile(net)


@pytest.mark.parametrize("name", ["none", *GOLDEN])
def test_program_fault_arrays(name):
    # built once per content and shared, so no caller may write them
    net = synthesize(LinearCode("no", np.eye(4)) if name == "none" else make_code(name))
    prog = nl.compile(net)
    faultable = [nl.CELL_KINDS.index(c.kind) if c.kind in nl.CELL_KINDS else 4
                 for c in net.cells.values()]
    clock = [c.kind == nl.CLOCK_INPUT or c.role == "clock" for c in net.cells.values()]
    assert prog.kind_code.tolist() == faultable and prog.on_clock.tolist() == clock
    assert not (prog.kind_code.flags.writeable or prog.on_clock.flags.writeable)


def test_synthesis_is_deterministic():
    for name in GOLDEN:
        a = synthesize(make_code(name))
        b = synthesize(make_code(name))
        assert a.to_json() == b.to_json()
        assert a.content_hash() == b.content_hash()


def test_serialization_roundtrip():
    for name in GOLDEN:
        net = synthesize(make_code(name))
        back = Netlist.from_json(net.to_json())
        back.validate()
        assert back.counts() == net.counts()
        assert back.content_hash() == net.content_hash()


def test_deserialize_bad_json():
    with pytest.raises(StructuralError):
        Netlist.from_json("{not json")


def test_deserialize_unknown_version():
    doc = synthesize(make_code("hamming74")).to_dict()
    doc["version"] = 99
    with pytest.raises(StructuralError):
        Netlist.from_dict(doc)


def test_unbalanced_netlist_rejected():
    net = Netlist("lopsided")
    net.add_cell("m1", nl.INPUT)
    net.add_cell("m2", nl.INPUT)
    net.inputs = ["m1", "m2"]
    d = net.add_cell("d0", nl.DFF)
    net.connect("m1", d)
    x = net.add_cell("x0", nl.XOR)
    net.connect(d, x, dst_pin=0)      # depth 1 arrives here
    net.connect("m2", x, dst_pin=1)   # depth 0 arrives here
    net.outputs = [x]
    with pytest.raises(StructuralError):
        net.validate()


def one_dff():
    """m1 -> DFF -> converter, with the DFF on the clock input."""
    net = Netlist("one_dff")
    net.add_cell("m1", nl.INPUT)
    net.inputs = ["m1"]
    net.add_cell("clk", nl.CLOCK_INPUT)
    net.clock = "clk"
    net.add_cell("d0", nl.DFF)
    net.connect("m1", "d0")
    net.connect("clk", "d0", dst_pin="clk")
    net.add_cell("o0", nl.SFQ2DC)
    net.connect("d0", "o0")
    net.outputs = ["o0"]
    return net


def unknown_kind(net):
    net.add_cell("z0", "NAND")


def missing_output_port(net):
    net.nets[-1] = nl.Net("d0", 1, "o0", 0)


def misnumbered_pin(net):
    net.nets[0] = nl.Net("m1", 0, "d0", 1)


def second_driver(net):
    net.add_cell("m2", nl.INPUT)
    net.inputs.append("m2")
    net.connect("m2", "d0")


def clock_into_converter(net):
    net.add_cell("clk2", nl.CLOCK_INPUT)
    net.connect("clk2", "o0", dst_pin="clk")


def no_clock_net(net):
    net.nets.pop(1)


def unlisted_input(net):
    net.inputs = []


def unknown_output(net):
    net.outputs = ["o9"]


def clock_is_data(net):
    net.clock = "m1"


def data_into_clock_pin(net):
    net.add_cell("m2", nl.INPUT)
    net.inputs.append("m2")
    net.nets[1] = nl.Net("m2", 0, "d0", "clk")


def clock_into_data_pin(net):
    net.add_cell("sc0", nl.SPLITTER, role="clock")
    net.nets[1] = nl.Net("clk", 0, "sc0", 0)
    net.connect("sc0", "d0", src_port=0, dst_pin="clk")
    net.connect("sc0", net.add_cell("o1", nl.SFQ2DC), src_port=1)


def clock_as_output(net):
    net.outputs = ["clk"]


def clock_splitter_with_data_role(net):
    net.add_cell("s0", nl.SPLITTER, role="data")
    net.nets[1] = nl.Net("clk", 0, "s0", 0)
    net.connect("s0", "d0", dst_pin="clk")


def data_splitter_with_clock_role(net):
    net.add_cell("s0", nl.SPLITTER, role="clock")
    net.nets[0] = nl.Net("m1", 0, "s0", 0)
    net.connect("s0", "d0")


@pytest.mark.parametrize("defect, message", [
    (unknown_kind, "unknown kind"),
    (missing_output_port, "no output port 1"),
    (misnumbered_pin, "data inputs on pins"),
    (second_driver, "more than one driver"),
    (clock_into_converter, "clock net into unclocked cell"),
    (no_clock_net, "no clock net"),
    (unlisted_input, "inputs must list"),
    (unknown_output, "not a cell"),
    (clock_is_data, "not a CLOCK_INPUT"),
    (data_into_clock_pin, "clock pin of d0 driven by m2, off the clock tree"),
    (clock_into_data_pin, "clock tree drives data pin of o1"),
    (clock_as_output, "output clk is on the clock tree"),
    (clock_splitter_with_data_role, "splitter s0 has role 'data' but is on the clock tree"),
    (data_splitter_with_clock_role, "splitter s0 has role 'clock' but is off the clock tree"),
])
def test_malformed_netlist_rejected(defect, message):
    net = one_dff()
    net.validate()
    defect(net)
    with pytest.raises(StructuralError, match=message):
        net.validate()


def test_attach_converters_checks_width():
    code = make_code("hamming84")
    net = place_splitters(balance(build_dag(boolean_forms(make_code("hamming74")))))
    with pytest.raises(StructuralError):
        attach_converters(net, code)
