"""The compile cache: a cached program always equals a fresh compile of the same netlist."""

import dataclasses
from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sfq_ecc import netlist as nl
from sfq_ecc.netlist import Netlist, StructuralError
from sfq_ecc.ppv import SETUP_NAMES, make_setup


def outcome(net):
    """Every field of ``net``'s program, or the type and message of the error compiling it."""
    try:
        prog = nl.compile(net)
    except (StructuralError, ValueError) as e:
        return type(e), str(e)
    return [(f.name, (v.dtype.str, v.tolist(), v.flags.writeable)
             if isinstance(v, np.ndarray) else v)
            for f in dataclasses.fields(prog) for v in [getattr(prog, f.name)]]


def rekeyed(net, renames, aliases=()):
    """``net`` with some ``cells`` keys renamed and some cells listed again under new keys."""
    cells = {renames.get(k, k): c for k, c in net.cells.items()}
    cells.update((f"alias{i}", net.cells[k]) for i, k in enumerate(aliases))
    return Netlist(net.name, cells, list(net.nets), list(net.outputs), list(net.inputs), net.clock)


def cold_compile_agrees(net, warm):
    """``warm`` is what a cold compile of ``net`` and of its JSON round trip give."""
    nl._compile.cache_clear()
    cold = outcome(net)
    assert cold == warm
    try:
        back = Netlist.from_dict(net.to_dict())
    except StructuralError:  # a cell id listed twice, which only the dict form can hold
        assert len({c.id for c in net.cells.values()}) < len(net.cells)
        return
    assert outcome(back) == cold


def test_renamed_cell_key_compiles_by_cell_id():
    net = make_setup("hamming74").netlist
    want = outcome(net)  # now cached under the content key the renamed netlist shares
    renamed = rekeyed(net, {"x0": "zz"})
    assert list(renamed.cells)[4] == "zz" and renamed.cells["zz"].id == "x0"
    assert outcome(renamed) == want
    cold_compile_agrees(renamed, want)


def test_duplicate_cell_id_is_rejected():
    net = rekeyed(make_setup("rm13").netlist, {}, aliases=["x0"])
    want = (StructuralError, "duplicate cell id 'x0'")
    assert outcome(net) == want
    cold_compile_agrees(net, want)


setup_netlist = cache(lambda name: make_setup(name).netlist)

# a cell id no netlist has; a key left out of the document; values no list of cell ids holds
GHOST = "ghost"
MISSING = object()
ODD_LISTS = [MISSING, None, 7, "m1", [1], [GHOST], []]


@st.composite
def mutated_docs(draw):
    """A setup's name and its netlist's JSON document after up to four random edits."""
    name = draw(st.sampled_from(SETUP_NAMES))
    doc = setup_netlist(name).to_dict()
    cells, nets = doc["cells"], doc["nets"]
    ids = [c["id"] for c in cells] + [GHOST]
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["drop net", "retarget net", "duplicate net", "kind",
                                     "drop cell", "inputs", "outputs", "clock"]))
        net_at = st.integers(0, max(len(nets) - 1, 0))
        cell_at = st.integers(0, max(len(cells) - 1, 0))
        if edit == "drop net" and nets:
            del nets[draw(net_at)]
        elif edit == "retarget net" and nets:
            end, ports = draw(st.sampled_from([("from", [0, 1, 2]), ("to", [0, 1, "clk"])]))
            cell, port = draw(st.sampled_from(ids)), draw(st.sampled_from(ports))
            nets[draw(net_at)][end] = f"{cell}:{port}"
        elif edit == "duplicate net" and nets:
            nets.insert(draw(net_at), dict(nets[draw(net_at)]))
        elif edit == "kind" and cells:
            cells[draw(cell_at)]["kind"] = draw(st.sampled_from([*nl.DATA_PINS, "NAND"]))
        elif edit == "drop cell" and cells:
            del cells[draw(cell_at)]
        elif edit in ("inputs", "outputs"):
            now = doc[edit] if isinstance(doc.get(edit), list) else []
            doc[edit] = draw(st.sampled_from([now[1:], now[::-1], now + now[:1], *ODD_LISTS]))
        elif edit == "clock":
            doc["clock"] = draw(st.sampled_from([MISSING, None, 3, [], *ids]))
    return name, {k: v for k, v in doc.items() if v is not MISSING}


@settings(max_examples=150, deadline=None)
@given(setup_and_doc=mutated_docs(), data=st.data())
def test_warm_compile_equals_cold_compile(setup_and_doc, data):
    name, doc = setup_and_doc
    # the setup is cached, so a hit on its content key by a different netlist would show
    nl.compile(setup_netlist(name))
    try:
        net = Netlist.from_dict(doc)
    except StructuralError:
        return
    keys = list(net.cells)
    if keys and data.draw(st.booleans(), label="rekey"):
        renamed = data.draw(st.lists(st.sampled_from(keys), unique=True), label="renamed")
        aliases = data.draw(st.lists(st.sampled_from(keys), max_size=1), label="aliases")
        net = rekeyed(net, {k: k + "'" for k in renamed}, aliases)
    warm = outcome(net)
    assert outcome(net) == warm
    cold_compile_agrees(net, warm)
    info = nl._compile.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
