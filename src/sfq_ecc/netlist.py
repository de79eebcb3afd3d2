"""Gate-level netlist container for SFQ encoder circuits.

Cells come in six kinds: ``XOR`` and ``DFF`` are clocked, ``SPLITTER``
duplicates one pulse to two branches, ``SFQ2DC`` drives one codeword bit to
the DC interface, and ``INPUT``/``CLOCK_INPUT`` are sources.  Nets connect
exactly one driver port to exactly one sink pin; a validated netlist has
fan-out one everywhere, an acyclic data graph, and the same clocked depth on
every input-to-converter path.  The clock tree (the ``CLOCK_INPUT`` cells
and the ``"clock"`` splitters they feed) drives only clock pins and its own
splitters, and only it drives a clock pin; no other splitter has role
``"clock"``.  :func:`compile` checks those rules and turns the netlist into
the levelized program that validation, cycle simulation and fault injection
all run on.

Serialization is a versioned JSON document with stable cell ids, so two
synthesis runs of the same code diff cleanly; ``content_hash`` is the
sha256 of its bytes, which :meth:`Netlist.to_json` writes in one pass.
"""

from __future__ import annotations

import graphlib
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import starmap

import numpy as np

XOR = "XOR"
DFF = "DFF"
SPLITTER = "SPLITTER"
SFQ2DC = "SFQ2DC"
INPUT = "INPUT"
CLOCK_INPUT = "CLOCK_INPUT"

# the priced and faultable cells, in the order of cost reports and margins
CELL_KINDS = (XOR, DFF, SPLITTER, SFQ2DC)
CLOCKED_KINDS = (XOR, DFF)
DATA_PINS = {XOR: 2, DFF: 1, SPLITTER: 1, SFQ2DC: 1, INPUT: 0, CLOCK_INPUT: 0}
OUT_PORTS = {XOR: 1, DFF: 1, SPLITTER: 2, SFQ2DC: 1, INPUT: 1, CLOCK_INPUT: 1}

SERIAL_VERSION = 1


class StructuralError(RuntimeError):
    """A netlist violates a structural rule (fan-out, balance, pins...)."""


@dataclass(frozen=True)
class Cell:
    id: str
    kind: str
    role: str = ""  # splitters carry "data" or "clock"


@dataclass(frozen=True)
class Net:
    """Directed edge driver-port -> sink-pin.

    ``pin`` counts data pins 0..; the clock pin of a clocked cell is the
    string ``"clk"`` so data and clock graphs separate cleanly: a net from
    the clock tree ends on a clock pin or a clock splitter, and a net into a
    clock pin starts on the clock tree.
    """

    src: str
    src_port: int
    dst: str
    dst_pin: object


@dataclass
class Netlist:
    name: str
    cells: dict = field(default_factory=dict)   # id -> Cell, insertion ordered
    nets: list = field(default_factory=list)    # list[Net]
    outputs: list = field(default_factory=list)  # SFQ2DC ids, codeword order
    inputs: list = field(default_factory=list)   # INPUT ids, message order
    clock: str | None = None                     # CLOCK_INPUT id

    def add_cell(self, cid: str, kind: str, role: str = "") -> str:
        if cid in self.cells:
            raise StructuralError(f"duplicate cell id {cid!r}")
        self.cells[cid] = Cell(cid, kind, role)
        return cid

    def connect(self, src: str, dst: str, src_port: int = 0, dst_pin: object = 0):
        self.nets.append(Net(src, src_port, dst, dst_pin))

    # -- queries ----------------------------------------------------------

    def counts(self) -> dict:
        """Cell tally by kind, with splitters split into data/clock roles."""
        kinds = Counter(c.kind for c in self.cells.values())
        clock_spl = sum(c.kind == SPLITTER and c.role == "clock" for c in self.cells.values())
        return {**{k: kinds[k] for k in CELL_KINDS},
                "data_splitters": kinds[SPLITTER] - clock_spl, "clock_splitters": clock_spl}

    def clocked_cells(self):
        return [c.id for c in self.cells.values() if c.kind in CLOCKED_KINDS]

    def driver_of(self, cid: str, pin: object = 0):
        for n in self.nets:
            if n.dst == cid and n.dst_pin == pin:
                return n
        return None

    # -- validation -------------------------------------------------------

    def validate(self):
        """Check pins, fan-out one, acyclicity and path balance."""
        compile(self)

    def depth(self) -> int:
        """Clocked cells on any input-to-output path (the pipeline latency)."""
        return compile(self).latency

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": SERIAL_VERSION,
            "name": self.name,
            "cells": [
                {"id": c.id, "kind": c.kind, **({"role": c.role} if c.role else {})}
                for c in self.cells.values()
            ],
            "nets": [
                {"from": f"{n.src}:{n.src_port}", "to": f"{n.dst}:{n.dst_pin}"}
                for n in self.nets
            ],
            "outputs": list(self.outputs),
            "inputs": list(self.inputs),
            "clock": self.clock,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, written in one pass.

        Each cell and net fills a fixed template, each string through json's own escaper."""
        esc = json.encoder.encode_basestring_ascii
        try:
            cells = [f'{{\n      "id": {esc(c.id)},\n      "kind": {esc(c.kind)}'
                     + (f',\n      "role": {esc(c.role)}\n    }}' if c.role else "\n    }")
                     for c in self.cells.values()]
            nets = [f'{{\n      "from": {esc(f"{n.src}:{n.src_port}")},\n      '
                    f'"to": {esc(f"{n.dst}:{n.dst_pin}")}\n    }}' for n in self.nets]
            return (f'{{\n  "cells": {_array(cells)},\n  "clock": '
                    f'{"null" if self.clock is None else esc(self.clock)},\n  '
                    f'"inputs": {_array(map(esc, self.inputs))},\n  "name": {esc(self.name)},\n  '
                    f'"nets": {_array(nets)},\n  "outputs": {_array(map(esc, self.outputs))},\n  '
                    f'"version": {SERIAL_VERSION}\n}}')
        except TypeError:  # a field that is not a string, only in a hand-built netlist
            return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, doc: dict) -> "Netlist":
        if not isinstance(doc, dict):
            raise StructuralError(f"netlist JSON must be an object, got {type(doc).__name__}")
        # type first: True and 1.0 compare equal to the integer version
        if type(doc.get("version")) is not int or doc["version"] != SERIAL_VERSION:
            raise StructuralError(f"unsupported netlist version {doc.get('version')!r}")
        if not isinstance(doc.get("name", ""), str):
            raise StructuralError(f"netlist name must be a string, got {doc['name']!r}")
        nl = cls(name=doc.get("name", "netlist"))
        entry = None
        try:
            for entry in doc["cells"]:
                cell = (entry["id"], entry["kind"], entry.get("role", ""))
                if not all(isinstance(x, str) for x in cell):
                    raise TypeError("cell id, kind and role must be strings")
                nl.add_cell(*cell)
            for entry in doc["nets"]:
                src, src_port = entry["from"].rsplit(":", 1)
                dst, dst_pin = entry["to"].rsplit(":", 1)
                pin: object = dst_pin if dst_pin == "clk" else int(dst_pin)
                nl.connect(src, dst, int(src_port), pin)
            entry = None
            nl.outputs = list(doc["outputs"])
            nl.inputs = list(doc.get("inputs", []))
            nl.clock = doc.get("clock")
            if not all(isinstance(x, str) for x in [*nl.outputs, *nl.inputs,
                                                     "" if nl.clock is None else nl.clock]):
                raise TypeError("outputs, inputs and clock must name cells")
        except (KeyError, TypeError, AttributeError, ValueError) as e:
            at = "" if entry is None else f" at {entry!r}"
            raise StructuralError(f"malformed netlist JSON{at}: {type(e).__name__} {e}") from e
        return nl

    @classmethod
    def from_json(cls, text: str) -> "Netlist":
        """The netlist of a JSON document; :class:`StructuralError` if it is malformed."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise StructuralError(f"netlist JSON malformed: {e}") from e
        return cls.from_dict(doc)


def _array(items) -> str:
    """A JSON array of written items, one level into the document, as ``indent=2`` spells it."""
    return f"[\n    {body}\n  ]" if (body := ",\n    ".join(items)) else "[]"


# -- compilation ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Program:
    """A validated netlist as an integer-indexed levelized schedule.

    Cells are numbered in ``net.cells`` insertion order.  Output port ``p``
    of cell ``i`` is slot ``2 * i + p``.  ``order`` lists every cell after
    the cells driving its data and clock pins, level by level as
    ``graphlib.TopologicalSorter`` hands them out, so one pass in that order
    evaluates the whole netlist.  A clock splitter's parent branch is its
    data driver; ``clock`` holds the slot on each clocked cell's clock pin,
    which only the clock tree drives.  ``kind_code`` and ``on_clock`` are
    read-only arrays for the fault injection of :mod:`sfq_ecc.ppv`.
    Programs compare by identity; equal netlists share one while it is cached.
    """

    cell_ids: tuple  # cell index -> id
    kinds: tuple     # cell index -> kind
    drivers: tuple   # cell index -> driver slot per data pin
    clock: tuple     # cell index -> driver slot of the clock pin, or None
    order: tuple     # cell indices, drivers first
    inputs: tuple    # cell index per message bit
    outputs: tuple   # cell index per output bit
    splitters: tuple  # cell index per splitter, in a chip's branch order
    latency: int
    kind_code: np.ndarray  # cell index -> position in CELL_KINDS, len(CELL_KINDS) for sources
    on_clock: np.ndarray   # cell index -> whether it is a clock input or clock splitter


def compile(net: Netlist) -> Program:
    """The validated, levelized program of ``net``, compiled from its content alone.

    The content is each cell's ``Cell.id`` (not its ``cells`` key), kind and
    role in order, the nets, inputs, outputs and clock: what ``content_hash``
    digests but the name, at a fraction of its cost (``ppv.sample_chip``
    compiles once per chip).  A cache of 64 programs holds them by content, so
    a netlist mutated after use compiles afresh, and equal netlists share one
    only while it stays cached.  Raises :class:`StructuralError` naming the
    cell at fault (a cycle with every cell on it, ``cycle through x0 -> s0 ->
    x0``) on an ill-formed netlist, and caches nothing.
    """
    return _compile(tuple([(c.id, c.kind, c.role) for c in net.cells.values()]),
                    tuple([(n.src, n.src_port, n.dst, n.dst_pin) for n in net.nets]),
                    tuple(net.inputs), tuple(net.outputs), net.clock)


@lru_cache(maxsize=64)  # the four setups of every workload, and room to spare
def _compile(cells: tuple, nets: tuple, inputs: tuple, outputs: tuple, clock_id) -> Program:
    ids, kinds, roles = zip(*cells) if cells else ((), (), ())
    index = {cid: i for i, cid in enumerate(ids)}
    if len(index) < len(ids):
        raise StructuralError(f"duplicate cell id {next(c for c in ids if ids.count(c) > 1)!r}")
    for cid, kind in zip(ids, kinds):
        if kind not in DATA_PINS:
            raise StructuralError(f"cell {cid} has unknown kind {kind!r}")
    pins = [{} for _ in ids]
    clock = [None] * len(ids)
    used = set()
    for n in starmap(Net, nets):
        if n.src not in index or n.dst not in index:
            raise StructuralError(f"net references unknown cell: {n}")
        s, d = index[n.src], index[n.dst]
        if not 0 <= n.src_port < OUT_PORTS[kinds[s]]:
            raise StructuralError(f"cell {n.src} ({kinds[s]}) has no output port {n.src_port}")
        slot = 2 * s + n.src_port
        if slot in used:
            raise StructuralError(f"fan-out above one at output port {(n.src, n.src_port)}")
        used.add(slot)
        if n.dst_pin == "clk":
            if kinds[d] not in CLOCKED_KINDS:
                raise StructuralError(f"clock net into unclocked cell {n.dst}")
            if clock[d] is not None:
                raise StructuralError(f"more than one driver on input pin {(n.dst, 'clk')}")
            clock[d] = slot
        else:
            if n.dst_pin in pins[d]:
                raise StructuralError(f"more than one driver on input pin {(n.dst, n.dst_pin)}")
            pins[d][n.dst_pin] = slot
    for i, cid in enumerate(ids):
        want = DATA_PINS[kinds[i]]
        if set(pins[i]) != set(range(want)):
            raise StructuralError(
                f"cell {cid} ({kinds[i]}) has {len(pins[i])} data inputs on pins "
                f"{sorted(pins[i], key=str)}, expected {want}")
        if kinds[i] in CLOCKED_KINDS and clock_id is not None and clock[i] is None:
            raise StructuralError(f"clocked cell {cid} has no clock net")
    if sorted(inputs) != sorted(cid for cid, k in zip(ids, kinds) if k == INPUT):
        raise StructuralError("inputs must list every INPUT cell exactly once")
    for cid in outputs:
        if cid not in index:
            raise StructuralError(f"output {cid!r} is not a cell")
    if clock_id is not None and (clock_id not in index
                                 or kinds[index[clock_id]] != CLOCK_INPUT):
        raise StructuralError(f"clock {clock_id!r} is not a CLOCK_INPUT cell")
    drivers = tuple(tuple(p[pin] for pin in range(len(p))) for p in pins)

    # levelize: graphlib hands out a level once every driver of it is done
    deps = {i: [slot >> 1 for slot in srcs] + ([clock[i] >> 1] if clock[i] is not None else [])
            for i, srcs in enumerate(drivers)}
    try:
        order = tuple(graphlib.TopologicalSorter(deps).static_order())
    except graphlib.CycleError as e:
        raise StructuralError("cycle through " + " -> ".join(ids[i] for i in e.args[1])) from e

    # clocked depth (converging paths must agree: the balance check) and the clock tree
    depth = [0] * len(ids)
    tree = [False] * len(ids)
    for i in order:
        tree[i] = kinds[i] == CLOCK_INPUT or (kinds[i] == SPLITTER and tree[drivers[i][0] >> 1])
        if kinds[i] == SPLITTER and tree[i] != (roles[i] == "clock"):
            raise StructuralError(f"splitter {ids[i]} has role {roles[i]!r} but is "
                                  f"{'on' if tree[i] else 'off'} the clock tree")
        if not tree[i] and any(tree[slot >> 1] for slot in drivers[i]):
            raise StructuralError(f"clock tree drives data pin of {ids[i]}")
        if clock[i] is not None and not tree[clock[i] >> 1]:
            raise StructuralError(f"clock pin of {ids[i]} driven by {ids[clock[i] >> 1]}, "
                                  f"off the clock tree")
        ins = {depth[slot >> 1] for slot in drivers[i]}
        if len(ins) > 1:
            raise StructuralError(f"unbalanced inputs at {ids[i]}: depths {sorted(ins)}")
        depth[i] = (ins.pop() if ins else 0) + (kinds[i] in CLOCKED_KINDS)
    for o in outputs:
        if tree[index[o]]:
            raise StructuralError(f"output {o} is on the clock tree")
    out_depths = {depth[index[o]] for o in outputs}
    if len(out_depths) > 1:
        raise StructuralError(f"outputs at unequal depths {sorted(out_depths)}")
    kind_code = np.array([CELL_KINDS.index(k) if k in CELL_KINDS else len(CELL_KINDS)
                          for k in kinds], dtype=np.intp)
    on_clock = np.array(tree, dtype=bool)
    kind_code.flags.writeable = on_clock.flags.writeable = False
    return Program(cell_ids=ids, kinds=kinds, drivers=drivers, clock=tuple(clock), order=order,
                   inputs=tuple(index[cid] for cid in inputs),
                   outputs=tuple(index[cid] for cid in outputs),
                   splitters=tuple(i for i, k in enumerate(kinds) if k == SPLITTER),
                   latency=max(out_depths, default=0), kind_code=kind_code, on_clock=on_clock)
