"""Cycle-accurate synchronous simulation of synthesized netlists.

A cycle is the atomic time unit: clocked cells (XOR, DFF) latch whatever is
present on their data pins during cycle t and emit it at cycle t+1, while
splitters and SFQ-to-DC converters are transparent within a cycle.  So a
balanced two-stage encoder delivers each codeword exactly two cycles after
its message enters, one message per cycle.  :func:`evaluate` is the one
evaluator of a compiled netlist, fault-free for :func:`simulate` and with
misfire masks for the fault injection of :mod:`sfq_ecc.ppv`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, cycle, repeat

import numpy as np

from sfq_ecc import _checks
from sfq_ecc import netlist as nl
from sfq_ecc.codes import LinearCode
from sfq_ecc.netlist import Netlist


@dataclass
class SimResult:
    """Per-cycle output frames plus the pipeline latency in cycles."""

    outputs: np.ndarray    # (cycles, outputs) uint8, one row of output bits per cycle
    latency: int
    output_ids: list


def latency(net: Netlist) -> int:
    """Clocked cells crossed on any input-to-converter path."""
    return net.depth()


def evaluate(prog: nl.Program, planes, mis=None, branch_sel=None) -> np.ndarray:
    """Output bit planes (n, ...) of the program for input planes (k, ...).

    Planes are uint8, packed or one bit per byte, one message per bit; the
    messages are independent, so one levelized pass of bitwise operations
    encodes them all.  Without ``mis`` the netlist is fault-free and its
    clock ideal.  ``mis`` (cells, rows, W) marks misfires on planes (k, rows,
    W), and ``branch_sel`` (rows, splitters) the branch each splitter drops,
    with the fault semantics of :mod:`sfq_ecc.ppv`.
    """
    live, drop0 = [False] * len(prog.kinds), {}
    if mis is not None:
        live = mis.reshape(len(mis), -1).any(axis=1).tolist()
        sel0 = np.where(branch_sel.T == 0, 0xFF, 0).astype(np.uint8)[:, :, None]
        drop0 = {i: mis[i] & sel0[p] for p, i in enumerate(prog.splitters) if live[i]}
    ones = np.full(planes.shape[1:], 0xFF, dtype=np.uint8)
    val = [None] * (2 * len(prog.kinds))
    for i in prog.order:
        kind, src = prog.kinds[i], prog.drivers[i]
        if kind == nl.INPUT:
            v = planes[prog.inputs.index(i)]
        elif kind == nl.CLOCK_INPUT:
            v = ones
        elif kind == nl.XOR:
            v = val[src[0]] ^ val[src[1]]
            if live[i]:
                v ^= mis[i]
        elif kind == nl.SPLITTER:
            a = val[src[0]]
            if live[i]:
                val[2 * i], val[2 * i + 1] = a & ~drop0[i], a & ~(mis[i] ^ drop0[i])
            else:
                val[2 * i] = val[2 * i + 1] = a
            continue
        else:  # DFF and SFQ2DC drop their pulse
            v = val[src[0]] & ~mis[i] if live[i] else val[src[0]]
        if prog.clock[i] is not None and val[prog.clock[i]] is not ones:
            v = v & val[prog.clock[i]]
        val[2 * i] = v
    outputs = [val[2 * o] for o in prog.outputs]
    return np.array(outputs, np.uint8).reshape(len(outputs), *ones.shape)


def simulate(net: Netlist, frames, cycles: int | None = None) -> SimResult:
    """Drive ``frames`` through the netlist, one message per cycle.

    ``frames`` is a (messages, k) array of bits, as :func:`message_frames`
    returns it; column j drives ``net.inputs[j]``.  A list of rows or ``[]``
    is accepted and checked the same way.  A new message may be injected
    every cycle; outputs appear ``latency`` cycles after their message, and
    cycles beyond ``frames`` carry zero messages.  Raises
    :class:`StructuralError` before simulating anything if the netlist is
    unbalanced or ill-formed, and ``ValueError`` if ``cycles`` is given but
    is not an integer from 0 to 2**31 - 1.

    One :func:`evaluate` pass encodes the messages; codeword t lands at
    cycle ``t + latency`` and every other cycle is 0, exact for a validated
    netlist: it is balanced and every data path starts at an input.
    """
    if cycles is not None:
        _checks.count("cycles", cycles, 0)
    prog = nl.compile(net)
    frames = message_frames(net, frames)
    if cycles is None:
        cycles = len(frames) + prog.latency
    frames = frames[:max(cycles - prog.latency, 0)]
    outputs = np.zeros((cycles, len(prog.outputs)), dtype=np.uint8)
    outputs[prog.latency:][:len(frames)] = evaluate(prog, np.ascontiguousarray(frames.T)).T
    return SimResult(outputs=outputs, latency=prog.latency, output_ids=list(net.outputs))


def message_frames(net: Netlist, messages) -> np.ndarray:
    """Message bit-vectors (a 2-D array or a list of rows) as checked input frames.

    Returns a (messages, k) uint8 array; column j is the bit for
    ``net.inputs[j]``.  Raises ``ValueError`` on a
    message of the wrong width or on any value other than 0 or 1, the rule
    of :func:`sfq_ecc.codes.bits`, checked once over the whole array.
    """
    k = len(net.inputs)
    try:
        msgs = np.asarray(messages)
        if msgs.shape[:1] == (0,):
            msgs = msgs.reshape(0, k)
    except ValueError:  # ragged rows
        msgs = None
    if msgs is None or msgs.shape[1:] != (k,):
        for m in messages:  # name the first message of the wrong width
            size = np.asarray(m).size
            if size != k:
                raise ValueError(f"message length {size} != {k} inputs")
        raise ValueError(f"messages must be rows of {k} bits")
    # checked before the cast, which would wrap 256 to 0 and truncate 0.5
    if not ((msgs == 0) | (msgs == 1)).all():
        raise ValueError("message bits must be 0 or 1")
    return msgs.astype(np.uint8, copy=False)


def verify_equivalence(net: Netlist, code: LinearCode):
    """Exhaustively compare netlist simulation against matrix encoding.

    All 2^k messages go through one pipelined stream; a netlist that passes
    validation is balanced, so each codeword depends on its own message
    only.  Returns ``(True, None)`` or ``(False, counterexample_message)``;
    raises :class:`StructuralError` when the netlist's output count is not
    the code's length, which no message can show.
    """
    res = simulate(net, code.messages)
    got = res.outputs[res.latency:]
    want = (code.messages @ code.G) % 2
    if got.shape[1] != want.shape[1]:
        raise nl.StructuralError(f"netlist {net.name} has {got.shape[1]} outputs, but "
                                 f"{code.name} codewords have {want.shape[1]} bits")
    bad = np.flatnonzero((got != want).any(axis=1))
    if bad.size:
        return False, code.messages[bad[0]].copy()
    return True, None


class Timeline(Sequence):
    """(time_ns, net_id, bit) rows of a simulation, each row built when it is read.

    A snapshot in O(cycles) memory: a plain ``float`` per cycle, shared by the
    cycle's rows, the output ids and a copy of the bits, read as ``tolist()``
    reads them.  Equal to a list of the same rows, but not a list (no
    ``append``, ``sort`` or ``+``); ``list(rows)`` gives one.
    """

    def __init__(self, stamps: list, ids: tuple, bits: np.ndarray):
        self._stamps, self._ids, self._bits = stamps, ids, bits

    def __len__(self):
        return len(self._bits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        k = range(len(self))[i]  # IndexError out of range, negative i counted from the end
        return self._stamps[k // len(self._ids)], self._ids[k % len(self._ids)], self._bits.item(k)

    def __iter__(self):
        times = chain.from_iterable(map(repeat, self._stamps, repeat(len(self._ids))))
        return zip(times, cycle(self._ids), self._bits.tolist())

    def __eq__(self, other):
        if not isinstance(other, (list, Timeline)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return f"<Timeline of {len(self)} rows>"


def to_timeline(result: SimResult, clock_ghz: float, epoch_ns: float = 0.0) -> Timeline:
    """The (time_ns, net_id, bit) rows of a simulation, as a read-only :class:`Timeline`.

    Cycle t lands at ``floor(epoch/period)*period + t*period``: the epoch
    fixes which clock period injection happened in, and each subsequent
    edge is one period later.  Sub-period analog offsets are outside this
    model, so timestamps are aligned to edges (exact to within one period).
    Rows run cycle by cycle, one per output; later changes to ``result`` change
    none.  Raises ``ValueError`` on a clock or epoch that is not a finite number
    (a bool is not one), a clock that is not positive, or stamps that overflow
    the float range.
    """
    if _checks.number("clock_ghz", clock_ghz) <= 0:
        raise ValueError("clock frequency must be positive")
    _checks.number("epoch_ns", epoch_ns)
    frames = np.asarray(result.outputs)
    cycles, width = frames.shape
    if len(result.output_ids) != width:
        raise ValueError(f"{len(result.output_ids)} output ids for {width} output bits")
    period = 1.0 / float(clock_ghz)  # in float64, whatever float type the clock came as
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.floor(float(epoch_ns) / period) * period if epoch_ns else 0.0
        stamps = base + np.arange(cycles) * period
    if not np.isfinite(stamps).all():  # a period or epoch beyond the float range
        raise ValueError(f"time stamps at {clock_ghz} GHz from epoch {epoch_ns} ns "
                         f"are not finite")
    return Timeline(stamps.tolist(), tuple(result.output_ids), frames.flatten())
