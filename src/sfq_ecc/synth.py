"""Encoder netlist synthesis under SFQ design rules.

The pipeline is ``build_dag -> balance -> place_splitters -> clock_tree ->
attach_converters -> place_splitters``:

1. ``build_dag`` turns the code's XOR forms into a two-level DAG, sharing
   subexpressions greedily: the most frequent message-index pair across all
   three-term forms is extracted first (ties break to the lexicographically
   smallest pair), then leftover multi-term forms reuse existing first-level
   pairs before creating new ones.
2. ``balance`` inserts DFF delay chains so every signal entering a clocked
   stage has crossed the same number of clock boundaries; chains are shared
   and tapped rather than duplicated per sink.
3. ``place_splitters`` restores fan-out one by expanding each multi-sink
   port into a chain of two-way splitters.
4. ``clock_tree`` fans a single clock input out to all clocked cells with
   exactly (clocked cells - 1) additional splitters.
5. ``attach_converters`` terminates each codeword bit in one SFQ-to-DC cell.
6. ``place_splitters`` again, for codeword bits that share a port (equal
   generator columns) and so a driver of several converters.

Every step is deterministic, so repeated synthesis of the same code yields
an identical serialized netlist.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from sfq_ecc import netlist as nl
from sfq_ecc.codes import LinearCode, boolean_forms
from sfq_ecc.netlist import Netlist, StructuralError


def _term_key(t):
    # message terms sort before nodes; both by index
    return (0, t[1]) if t[0] == "m" else (1, t[1])


def _term_depth(nodes, t) -> int:
    """XOR stages behind term ``t``: 0 for a message bit, else its node's depth."""
    return 0 if t[0] == "m" else nodes[t[1]].depth


@dataclass(frozen=True)
class XorNode:
    id: int
    a: tuple
    b: tuple
    depth: int


@dataclass
class XorDag:
    """Two-level XOR network: terms are ('m', input) or ('n', node id)."""

    k: int
    nodes: list
    outputs: list  # one term per codeword position

    @property
    def depth(self) -> int:
        return max((_term_depth(self.nodes, t) for t in self.outputs), default=0)

    def eval_message(self, message) -> np.ndarray:
        """Truth-table evaluation, the functional reference for the DAG."""
        m = np.asarray(message, dtype=np.uint8)
        vals = []
        for node in self.nodes:
            va = m[node.a[1]] if node.a[0] == "m" else vals[node.a[1]]
            vb = m[node.b[1]] if node.b[0] == "m" else vals[node.b[1]]
            vals.append(va ^ vb)
        return np.array(
            [m[t[1]] if t[0] == "m" else vals[t[1]] for t in self.outputs],
            dtype=np.uint8,
        )


def build_dag(forms) -> XorDag:
    """Decompose XOR forms into shared two-input gates.

    ``forms`` is the list produced by :func:`sfq_ecc.codes.boolean_forms`
    (or any objects with 0-based ``terms``).  Raises on an empty form: a
    codeword bit must depend on at least one message bit.
    """
    term_sets = []
    k = 0
    for f in forms:
        terms = tuple(f.terms)
        if not terms:
            raise ValueError("output form with no message terms")
        k = max(k, max(terms) + 1)
        term_sets.append({("m", i) for i in terms})

    nodes: list = []
    by_pair: dict = {}

    def mknode(a, b) -> int:
        a, b = sorted((a, b), key=_term_key)
        pair = (a, b)
        if pair in by_pair:
            return by_pair[pair]
        nid = len(nodes)
        nodes.append(XorNode(nid, a, b, 1 + max(_term_depth(nodes, a), _term_depth(nodes, b))))
        by_pair[pair] = nid
        return nid

    # phase 1: pull the most frequent input pair out of the 3-term forms
    while True:
        counts = Counter()
        for s in term_sets:
            raw = sorted(t[1] for t in s if t[0] == "m")
            if len(s) == 3:
                counts.update(combinations(raw, 2))
        if not counts:
            break
        best = max(counts.values())
        i, j = min(p for p, c in counts.items() if c == best)
        nid = mknode(("m", i), ("m", j))
        for s in term_sets:
            if len(s) == 3 and ("m", i) in s and ("m", j) in s:
                s -= {("m", i), ("m", j)}
                s.add(("n", nid))

    # phase 2: finish every form, preferring existing first-level pairs
    outputs = []
    for s in term_sets:
        s = set(s)
        while len(s) > 2:
            firsts = sorted(
                (pair, nid)
                for pair, nid in by_pair.items()
                if pair[0][0] == "m" and pair[1][0] == "m" and set(pair) <= s
            )
            if firsts:
                pair, nid = firsts[0]
                s -= set(pair)
                s.add(("n", nid))
                continue
            raw = sorted((t for t in s if t[0] == "m"), key=_term_key)
            a, b = raw[:2] if len(raw) >= 2 else sorted(s, key=_term_key)[:2]
            nid = mknode(a, b)
            s -= {a, b}
            s.add(("n", nid))
        if len(s) == 2:
            a, b = sorted(s, key=_term_key)
            outputs.append(("n", mknode(a, b)))
        else:
            (t,) = s
            outputs.append(t)
    return XorDag(k=k, nodes=nodes, outputs=outputs)


def balance(dag: XorDag, name: str = "encoder") -> Netlist:
    """Materialize the DAG as cells and insert shared DFF delay chains.

    The result still allows fan-out greater than one; splitters come next.
    Output positions are recorded on the netlist for converter attachment
    (``outputs`` holds the port cell of each codeword bit until
    :func:`attach_converters` replaces them with SFQ2DC cells).
    """
    net = Netlist(name=name)
    for i in range(dag.k):
        net.add_cell(f"m{i + 1}", nl.INPUT)
    net.inputs = [f"m{i + 1}" for i in range(dag.k)]
    xor_id = {node.id: net.add_cell(f"x{node.id}", nl.XOR) for node in dag.nodes}

    def src_signal(term):
        return f"m{term[1] + 1}" if term[0] == "m" else xor_id[term[1]]

    depth = dag.depth
    # gather (signal, delay) demands in a fixed order: XOR pins, then outputs
    demands = []  # (signal, delay, kind, payload)
    for node in dag.nodes:
        for pin, term in enumerate((node.a, node.b)):
            delay = node.depth - 1 - _term_depth(dag.nodes, term)
            demands.append((src_signal(term), delay, "pin", (xor_id[node.id], pin)))
    for pos, term in enumerate(dag.outputs):
        demands.append((src_signal(term), depth - _term_depth(dag.nodes, term), "out", pos))

    max_delay: dict = {}
    for sig, delay, _, _ in demands:
        max_delay[sig] = max(max_delay.get(sig, 0), delay)

    # build chains in cell creation order (inputs, then XOR nodes)
    chain: dict = {}
    dff_count = 0
    for sig in list(net.cells):
        if max_delay.get(sig, 0) > 0:
            elems = [sig]
            for _ in range(max_delay[sig]):
                d = net.add_cell(f"d{dff_count}", nl.DFF)
                dff_count += 1
                net.connect(elems[-1], d)
                elems.append(d)
            chain[sig] = elems
    tap = lambda sig, delay: chain[sig][delay] if delay else sig

    out_ports = [None] * len(dag.outputs)
    for sig, delay, kind, payload in demands:
        if kind == "pin":
            cell, pin = payload
            net.connect(tap(sig, delay), cell, dst_pin=pin)
        else:
            out_ports[payload] = tap(sig, delay)
    net.outputs = out_ports
    return net


def place_splitters(net: Netlist) -> Netlist:
    """Expand every multi-sink port into a chain of two-way splitters.

    Branch 0 of each splitter feeds the next sink in wiring order and
    branch 1 continues the chain; the final splitter feeds the last two
    sinks directly.  A port with f sinks costs exactly f - 1 splitters.
    """
    counter = sum(1 for c in net.cells.values() if c.role == "data")
    by_port: dict = {}
    for n in net.nets:
        by_port.setdefault((n.src, n.src_port), []).append(n)
    for cid in list(net.cells):
        for port in range(nl.OUT_PORTS[net.cells[cid].kind]):
            sinks = by_port.get((cid, port), [])
            if len(sinks) <= 1:
                continue
            for n in sinks:
                net.nets.remove(n)
            src, src_port = cid, port
            for n in sinks[:-1]:
                spl = net.add_cell(f"sd{counter}", nl.SPLITTER, role="data")
                counter += 1
                net.connect(src, spl, src_port=src_port)
                net.connect(spl, n.dst, src_port=0, dst_pin=n.dst_pin)
                src, src_port = spl, 1
            net.connect(src, sinks[-1].dst, src_port=src_port, dst_pin=sinks[-1].dst_pin)
    return net


def clock_tree(net: Netlist) -> Netlist:
    """Distribute one clock input to all clocked cells via a splitter chain."""
    clocked = net.clocked_cells()
    if not clocked:
        return net
    clk = net.add_cell("clk", nl.CLOCK_INPUT)
    net.clock = clk
    src, src_port = clk, 0
    for i, cell in enumerate(clocked[:-1]):
        spl = net.add_cell(f"sc{i}", nl.SPLITTER, role="clock")
        net.connect(src, spl, src_port=src_port)
        net.connect(spl, cell, src_port=0, dst_pin="clk")
        src, src_port = spl, 1
    net.connect(src, clocked[-1], src_port=src_port, dst_pin="clk")
    return net


def attach_converters(net: Netlist, code: LinearCode | None = None) -> Netlist:
    """Terminate each codeword position in an SFQ-to-DC converter."""
    ports = net.outputs
    if code is not None and len(ports) != code.n:
        raise StructuralError(f"{len(ports)} output ports for n={code.n}")
    outs = []
    for pos, port in enumerate(ports):
        conv = net.add_cell(f"o{pos}", nl.SFQ2DC)
        net.connect(port, conv)
        outs.append(conv)
    net.outputs = outs
    return net


def synthesize(code: LinearCode) -> Netlist:
    """Full deterministic synthesis of the encoder netlist for ``code``."""
    dag = build_dag(boolean_forms(code))
    net = balance(dag, name=f"{code.name}_encoder")
    net = place_splitters(net)
    net = clock_tree(net)
    net = attach_converters(net, code)
    net = place_splitters(net)
    net.validate()
    return net
