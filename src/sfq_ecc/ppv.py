"""Monte Carlo fault injection under process-parameter variation.

Each simulated chip instance assigns every cell one scalar deviation drawn
from a bounded spread; a cell is faulty when its deviation exceeds the
margin configured for its kind.  Faulty cells misbehave per evaluation with
probability ``q``:

* ``XOR``      -- output inverted,
* ``DFF``      -- output pulse dropped (forced 0),
* ``SPLITTER`` -- the chip's designated branch drops its pulse when it
  carries a 1 (clock-tree splitters drop clock pulses, silencing the cells
  they feed that cycle),
* ``SFQ2DC``  -- output pulse dropped (a "flip" only ever manifests on a
  carried 1 at the DC interface).

A trial sends ``n_messages`` random messages through the faulted encoder and
correct-mode decoding and counts wrong deliveries; repeating over
``n_chips`` independent chips yields the CDF of erroneous-message counts.
All randomness derives from (master_seed, chip_index), so results are
bit-identical regardless of execution order or batch size.

Each chip draws 64-bit words from its own PCG64 stream, the one
``SeedSequence((master_seed, chip_index))`` seeds.  Both are counts, one
32-bit word each, as numpy's zero padding would alias longer seeds
(:func:`_seed_words` hashes a block of chips at once).

The words are drawn in a fixed layout: one word per cell for its
deviation; then 32-bit halves, the low half of a word first, one per
splitter for its branch, followed by the (n_messages, k) message bits, a
byte each and four to a half; then, from the next whole word, a (cells,
n_messages) block of misfire uniforms, row by row.  Two rules turn words
into numbers exactly as ``Generator`` does.  A double is the
top 53 bits of a word over 2**53 (``random``); a uniform deviation is
``-spread + 2 * spread * double`` (``uniform``).  A bit is the top bit of
its half for a branch and of its byte for a message bit: the bounded
draws ``integers(0, 2)`` and ``integers(0, 2, dtype=uint8)``, which never
reject at a range of 2.  Under ``gaussian`` the deviations come from
``Generator.normal``, redrawn until all lie within the spread, and the
words after them follow the same layout.

Chip c of every setup reads the same stream, so under ``uniform`` each
setup's head, every word before its block, is a prefix of the longest.
:class:`_ChipStore` draws each chip of a run once for all its setups (an
``mc`` run, a calibration) and keeps one generator per chip.  Misfire rows
are drawn on demand, a batch's in one block, only for cells that can
misfire under some scored point, at absolute word positions reached with
``bit_generator.advance``: exact both ways, as PCG64's period is 2**128
and each uniform is one word, so kept chips serve any margins.

One function, :func:`_received`, applies the fault model to a batch of chip
material at every (margins, q) point of one config: it alone compares
deviations with margins and draws misfire rows, and it evaluates the batch
in bit-packed passes of :func:`sfq_ecc.sim.evaluate`.  Messages pack eight
to a byte, every gate is one bitwise operation over all of them
(bit-parallel pattern fault simulation, as in Waicukauski et al., "Fault
simulation for structured VLSI", 1985), and each distinct (chip, q, faulty
drawn cells) is one row, evaluated and counted once however many points
share it; a single chip is a batch of one.  A (point, chip) pair with no
cell that can misfire gets no row: as concurrent fault simulation
simulates the good machine once (Ulrich & Baker, "Concurrent simulation
of nearly identical digital networks", 1974), each scoring call evaluates
the fault-free netlist once on every message and counts such a pair from
it.  A config with ``clock_faults=False`` clears the misfires of its
clock-tree cells.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial
from itertools import product
from types import MappingProxyType

import numpy as np

from sfq_ecc import _checks
from sfq_ecc import netlist as nl
from sfq_ecc.codes import (
    CORRECT,
    TIE_CONSERVATIVE,
    TIE_OPTIMISTIC,
    TIE_POLICIES,
    LinearCode,
    make_code,
)
from sfq_ecc.netlist import CELL_KINDS, Netlist
from sfq_ecc.sim import evaluate
from sfq_ecc.synth import synthesize

SETUP_NAMES = ("none", "rm13", "hamming74", "hamming84")

# Zero-error probabilities the fault model is calibrated against,
# in SETUP_NAMES order.
CALIBRATION_TARGETS = {
    "none": 0.800,
    "rm13": 0.867,
    "hamming74": 0.898,
    "hamming84": 0.927,
}
# A calibration converges when every probability is this close to its target.
CALIBRATION_THRESHOLD = 0.05

_BATCH = 250  # chips drawn at once, and the row cap of one engine pass
_PCG64_PERIOD = 2**128  # a named constant: CPython does not fold a power this large
_SEED_BLOCK = 256  # chips whose seed words are computed at once; a divisor of 2**32

# numpy's SeedSequence hashing (O'Neill's seed_seq_fe, NEP 19): a 4-word pool
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _margin(kind, value) -> float:
    """``value`` as a float if it is a finite non-negative number, else ValueError."""
    if _checks.number(f"margin of {kind}", value) < 0:
        raise ValueError(f"margin of {kind} must be non-negative, got {value!r}")
    return float(value)


def _python_number(v):
    """A validated real number as a Python ``int`` if it is an integer, else a ``float``."""
    return int(v) if isinstance(v, numbers.Integral) else float(v)


@dataclass(frozen=True)
class PpvConfig:
    """Knobs of the fault model.

    ``margins`` maps cell kind to the deviation magnitude it tolerates;
    ``q`` is the per-evaluation misfire probability of a faulty cell.
    ``count_detected_errors`` follows the pessimistic default: a decoder
    that flags a word uncorrectable still failed to deliver the message,
    so the message counts as erroneous.  Calibrated configs may flip it to
    erasure accounting (see :func:`calibrate_fault_model`).  ``tie_break``
    selects the tie policy of the Monte Carlo decoder (only rm13 resolves
    ties).  ``master_seed`` is a count, as ``n_chips`` and ``n_messages``
    are, so that no two seeds share chips.  ``margins`` is stored as a
    read-only copy, so neither the caller's dict nor the config can change
    after validation.  Numbers are stored as Python ``int`` (integers) and
    ``float`` (the rest), so :meth:`to_dict` is plain JSON whatever numeric
    types built the config.
    """

    spread: float = 0.20
    distribution: str = "uniform"  # or "gaussian" (truncated at +-spread)
    margins: Mapping = field(default_factory=lambda: dict.fromkeys(CELL_KINDS, 0.15))
    q: float = 0.1
    master_seed: int = 20240
    n_chips: int = 1000
    n_messages: int = 100
    count_detected_errors: bool = True
    tie_break: str = TIE_CONSERVATIVE
    clock_faults: bool = True

    def __post_init__(self):
        for name in ("spread", "q"):
            _checks.number(name, getattr(self, name))
        _checks.count("master_seed", self.master_seed, 0)
        for name in ("n_chips", "n_messages"):
            _checks.count(name, getattr(self, name), 1)
        for name in ("spread", "q", "master_seed", "n_chips", "n_messages"):
            object.__setattr__(self, name, _python_number(getattr(self, name)))
        for name in ("count_detected_errors", "clock_faults"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not 0 < self.spread <= 1:
            raise ValueError("spread must be in (0, 1]")
        if not 0 <= self.q <= 1:
            raise ValueError("q must be in [0, 1]")
        _checks.one_of("distribution", self.distribution, ("uniform", "gaussian"))
        _checks.one_of("tie_break", self.tie_break, TIE_POLICIES)
        margins = _checks.exact_keys("margins", self.margins, CELL_KINDS, "cell kind")
        for kind in CELL_KINDS:
            _margin(kind, margins[kind])
        object.__setattr__(self, "margins", MappingProxyType(
            {kind: _python_number(value) for kind, value in margins.items()}))

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "margins": dict(self.margins)}

    def __reduce__(self):  # a mappingproxy cannot be pickled or deep-copied
        return type(self).from_dict, (self.to_dict(),)

    @classmethod
    def from_dict(cls, doc: dict) -> "PpvConfig":
        if not isinstance(doc, Mapping):
            raise ValueError(f"a PPV config must be a mapping, got {doc!r}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)}, key=str)
        if unknown:
            raise ValueError(f"unknown PPV config keys: {', '.join(map(str, unknown))}")
        doc = dict(doc)
        if isinstance(doc.get("margins"), Mapping):
            doc["margins"] = {str(k): _margin(k, v) for k, v in doc["margins"].items()}
        return cls(**doc)


@dataclass(frozen=True)
class EncoderSetup:
    """One transmit configuration: a netlist plus its code (identity = raw)."""

    name: str
    netlist: Netlist
    code: LinearCode


def make_setup(name: str) -> EncoderSetup:
    _checks.one_of("setup", name, SETUP_NAMES)
    # the uncoded channel is the identity code "no", which synthesizes to no_encoder
    code = LinearCode("no", np.eye(4)) if name == "none" else make_code(name)
    return EncoderSetup(name, synthesize(code), code)


def no_encoder() -> Netlist:
    """Uncoded channel: one SFQ-to-DC converter per line of a 4-bit message, no clock."""
    return make_setup("none").netlist


@dataclass(frozen=True)
class ChipInstance:
    """One sampled chip; the config it is scored under decides its faulty cells."""

    chip_index: int
    cell_ids: tuple
    deviations: np.ndarray
    branch_sel: np.ndarray  # designated droppable branch per splitter


@dataclass
class CdfSeries:
    """P(N <= n) for n = 0..n_messages over the sampled chips."""

    ns: np.ndarray
    cdf: np.ndarray
    n_chips: int

    @property
    def zero_error_prob(self) -> float:
        return float(self.cdf[0])

    def to_csv(self) -> str:
        return "n,cdf\n" + "".join(f"{int(n)},{p:.10g}\n" for n, p in zip(self.ns, self.cdf))


class _FaultEngine:
    """A netlist, its :func:`netlist.compile` program and counts, built per call: kept only
    as ``perfbench/tracing.py`` keys each chip draw on :func:`_chip_material`'s first argument."""

    def __init__(self, net: Netlist):
        self.net = net
        self.prog = nl.compile(net)
        self.n_cells = len(self.prog.cell_ids)
        self.n_splitters = len(self.prog.splitters)
        self.n_inputs = len(net.inputs)


def _seed_words(master_seed: int, chips) -> np.ndarray:
    """``SeedSequence((master_seed, chip)).generate_state(4, np.uint64)`` per chip, (chips, 4).

    The seed and the chips are counts, below 2**31, so the entropy is the
    two 32-bit words [seed, chip], padded with zero words to the 4-word
    pool.  Each step of numpy's hashing runs over the whole array of chips
    in uint32, which wraps as C does: the pool is hashed from the entropy,
    its words mixed with each other, and the state hashed from the pool,
    two 32-bit words, the low one first, to a uint64.
    """
    entropy = np.zeros((4, len(chips)), dtype=np.uint32)
    entropy[0], entropy[1] = master_seed, chips

    def hasher(const, mult):
        """numpy's ``hashmix``: each call steps the hash constant by ``mult``."""
        def hashed(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & _MASK32
            value = value * np.uint32(const)
            return value ^ value >> 16
        return hashed

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ value >> 16

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    output = hasher(_INIT_B, _MULT_B)
    state = np.empty((len(chips), 8), dtype="<u4")
    for i in range(8):
        state[:, i] = output(pool[i % 4])
    return state.view("<u8").astype(np.uint64)


@lru_cache(maxsize=4)  # a default Monte Carlo's 1,000 chips, 32 KB
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """The read-only :func:`_seed_words` of the ``_SEED_BLOCK`` chips from ``block * _SEED_BLOCK``.

    A memo, not an argument: :func:`_chip_material` is called once per chip
    and keeps its signature, so the chips of a block share one computation
    here.  The words are a :func:`_seed_words_type` array, so each row
    seeds ``PCG64`` as it is.
    """
    words = _seed_words(master_seed, np.arange(block * _SEED_BLOCK, (block + 1) * _SEED_BLOCK))
    words.flags.writeable = False
    return words.view(_seed_words_type())


@lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """An array of seed words that is its own ``ISeedSequence``: a row hands ``PCG64`` itself.

    A row of a C-contiguous (chips, 4) uint64 array is one chip's four
    words, laid out as ``PCG64`` reads them; indexing the block makes the
    row, so seeding a chip builds no other object.  Made on first use:
    numpy imports ``numpy.random`` lazily, and importing it to subclass
    ``ISeedSequence`` would add ~15 ms to every import of this package,
    chips drawn or not.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(np.ndarray, ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for 4 uint64
            return self

    return SeedWords


def _head_words(eng: _FaultEngine, cfg: PpvConfig) -> int:
    """Words before the misfire block: a word per cell, a half per branch and per 4 message bits."""
    return eng.n_cells + (eng.n_splitters + -(-cfg.n_messages * eng.n_inputs // 4) + 1) // 2


def _chip_material(eng: _FaultEngine, cfg: PpvConfig, chip_index: int):
    """All randomness of one chip: its head words and its ``PCG64``, standing after the head.

    The head is every word before the misfire block, in one ``random_raw``
    call; under ``gaussian`` its first ``cells`` words are the bits of the
    ``Generator.normal`` deviations.  Nothing drawn depends on margins or ``q``.
    """
    block, at = divmod(chip_index, _SEED_BLOCK)
    bitgen = np.random.PCG64(_seed_block(cfg.master_seed, block)[at])
    length = _head_words(eng, cfg)
    if cfg.distribution == "uniform":
        head = bitgen.random_raw(length)
    else:
        normal = np.random.Generator(bitgen).normal
        dev = normal(0.0, cfg.spread / 2.0, eng.n_cells)
        while True:
            bad = np.abs(dev) > cfg.spread
            if not bad.any():
                break
            dev[bad] = normal(0.0, cfg.spread / 2.0, int(bad.sum()))
        head = np.concatenate([dev.view(np.uint64), bitgen.random_raw(length - eng.n_cells)])
    return head, bitgen


class _ChipStore:
    """Chips ``chips`` (default all ``cfg.n_chips``) of ``cfg``'s stream, drawn once for ``engs``.

    A chip is one :func:`_chip_material` at the longest head (under ``gaussian``,
    whose redraws break the prefix, at each cell count's), a batch drawn when
    first read.  A head is kept as rows of two arrays, its deviations and the
    top bit of each byte (all that branch and message bits read): ~1 KB a chip
    for the four setups at 100 messages, half of it the one generator.
    """

    def __init__(self, cfg: PpvConfig, engs, chips: range | None = None):
        self.cfg, self.chips, self.drawn = cfg, range(cfg.n_chips) if chips is None else chips, 0
        engs = sorted(engs, key=partial(_head_words, cfg=cfg))
        cells, n = max(eng.n_cells for eng in engs), len(self.chips)
        # key (0, or the cell count under gaussian) -> engine, deviations, tops, generators and
        # the word each stands at
        self.heads = {}
        for key, eng in {e.n_cells * (cfg.distribution == "gaussian"): e for e in engs}.items():
            length = _head_words(eng, cfg)
            self.heads[key] = (eng, np.empty((n, key or cells)), np.empty((n, length), np.uint8),
                               [None] * n, np.full(n, length))

    def _draw(self, stop: int):
        """Draw every head of the store's chips up to row ``stop``, a batch at a time."""
        for start in range(self.drawn, stop, _BATCH):
            rows = slice(start, min(start + _BATCH, stop))
            for eng, dev, tops, gens, _ in self.heads.values():
                heads = np.empty((rows.stop - start, tops.shape[1]), dtype=np.uint64)
                for j in range(start, rows.stop):
                    heads[j - start], gens[j] = _chip_material(eng, self.cfg, self.chips[j])
                words = heads[:, :dev.shape[1]]  # Generator.uniform: low + (high - low) * double
                dev[rows] = (_doubles(words) * (2 * self.cfg.spread) - self.cfg.spread
                             if self.cfg.distribution == "uniform" else words.view(np.float64))
                heads &= np.uint64(0x8080808080808080)  # in place: each byte's top bit
                tops[rows] = np.packbits(heads.astype("<u8", copy=False).view(np.uint8), 1)
        self.drawn = max(self.drawn, stop)

    def rows(self, eng: _FaultEngine, cfg: PpvConfig, chips: range) -> tuple:
        """``eng``'s part of ``self.heads`` for ``chips``, drawn if new; ValueError if not held."""
        for k in ("master_seed", "spread", "distribution", "n_messages"):  # the stream's knobs
            if getattr(cfg, k) != getattr(self.cfg, k):
                raise ValueError(f"the chip store holds the chips of {k} "
                                 f"{getattr(self.cfg, k)!r}, not {getattr(cfg, k)!r}")
        if chips.start < self.chips.start or chips.stop > self.chips.stop:
            raise ValueError(f"the chip store holds chips {self.chips.start} to "
                             f"{self.chips.stop - 1}, not {chips.start} to {chips.stop - 1}")
        length = _head_words(eng, cfg)
        held = self.heads.get(eng.n_cells * (cfg.distribution == "gaussian"))
        if held is None or held[1].shape[1] < eng.n_cells or held[2].shape[1] < length:
            raise ValueError(f"the chip store holds no head for the netlist {eng.net.name!r}")
        rows = slice(chips.start - self.chips.start, chips.stop - self.chips.start)
        self._draw(rows.stop)
        _, dev, tops, gens, at = held
        return dev[rows, :eng.n_cells], tops[rows, :length], gens[rows], at[rows]


def _doubles(words) -> np.ndarray:
    """PCG64 words as the doubles of ``Generator.random``: the top 53 bits over 2**53."""
    return (words >> 11) * 2.0**-53


def _below(words, q: float) -> np.ndarray:
    """``_doubles(words) < q`` in uint64: the top 53 bits below ``ceil(q * 2**53)``.

    Exact, as a double is an integer of 53 bits over 2**53 and scaling ``q``
    by a power of two rounds nothing.
    """
    return words >> 11 < np.uint64(math.ceil(q * 2.0**53))


def _decode(eng: _FaultEngine, cfg: PpvConfig, store: _ChipStore, chips: range) -> tuple:
    """The batch ``chips`` of ``store`` as :func:`_received` takes it, from ``eng``'s head prefix.

    Deviations (chips, cells), then branches (chips, splitters) and messages
    (chips, n_messages, k) uint8 unpacked from the byte tops, then a function
    ``draw(chip, cell)`` of misfire rows (:func:`_misfire_words`).
    """
    dev, tops, gens, at = store.rows(eng, cfg, chips)
    bits = np.unpackbits(tops[:, eng.n_cells:], axis=1)  # byte tops after the deviations
    s, m, k = eng.n_splitters, cfg.n_messages, eng.n_inputs
    msgs = bits[:, 4 * s:4 * s + m * k].reshape(len(bits), m, k)  # a byte per message bit
    return (dev, bits[:, 3:4 * s:4].astype(np.int64), msgs,  # a half, the top byte, per branch
            partial(_misfire_words, gens, at, tops.shape[1], m))


def _misfire_words(gens, at, head: int, n_messages: int, chip, cell) -> np.ndarray:
    """Row ``cell[i]`` of the misfire block of ``gens[chip[i]]`` for each i, (F, n_messages) words.

    Row ``c`` after a ``head``-word head starts at word ``head + c * n_messages``, so
    one generator serves every head's block, in any order: ``advance`` moves it from
    the word ``at`` holds modulo PCG64's period, 2**128, exact backward too.
    """
    out = np.empty((len(cell), n_messages), dtype=np.uint64)
    for i, (j, start) in enumerate(zip(chip.tolist(), (head + cell * n_messages).tolist())):
        if start != at[j]:
            gens[j].advance((start - int(at[j])) % _PCG64_PERIOD)
        out[i] = gens[j].random_raw(n_messages)
        at[j] = start + n_messages
    return out


def sample_chip(net: Netlist, cfg: PpvConfig, chip_index: int) -> ChipInstance:
    """Draw one chip instance; deterministic in (master_seed, chip_index).

    Chip indices run from 0 to 2**31 - 1, as the chips of a Monte Carlo do.
    """
    _checks.count("chip_index", chip_index, 0)
    eng, chips = _FaultEngine(net), range(chip_index, chip_index + 1)
    dev, branch, *_ = _decode(eng, cfg, _ChipStore(cfg, [eng], chips), chips)
    return ChipInstance(chip_index, eng.prog.cell_ids, dev[0], branch[0])


def _word_index(packed, n_messages: int) -> np.ndarray:
    """Index of each word, first bit most significant (as :func:`codes.pack`).

    ``packed`` holds one packed bit plane per word bit, (bits, rows, W);
    returns (rows, n_messages).
    """
    planes = np.unpackbits(packed, axis=-1, count=n_messages)
    words = planes[0].astype(np.min_scalar_type((1 << len(planes)) - 1))
    for plane in planes[1:]:
        words <<= 1
        words |= plane
    return words


def _wrong(eng: _FaultEngine, setup: EncoderSetup, cfg: PpvConfig) -> tuple:
    """Whether a message counts as erroneous under ``cfg``'s accounting and tie policy.

    Returns the table per (sent index, received word) and its entry per sent
    index at the word the fault-free netlist sends: one :func:`evaluate` of
    all 2**k messages, exact for any netlist, equivalent to its code or not.
    """
    delivered = setup.code.decode_table(CORRECT, cfg.tie_break)
    msgs = setup.code.messages  # row m holds the bits of sent index m
    sent = np.arange(len(msgs))
    wrong = delivered != sent[:, None]
    if not cfg.count_detected_errors:
        wrong &= delivered >= 0
    clean = _word_index(evaluate(eng.prog, _planes(msgs[None])), len(msgs))[0]
    return wrong, wrong[sent, clean]


def _distinct(key) -> tuple:
    """The first index of each distinct row of ``key``, sorted, and each row's rank among them."""
    order = np.lexsort(key.T[::-1])  # the first column most significant
    ranked = key[order]
    new = np.ones(len(key), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    rank = np.empty(len(key), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return order[new], rank


def _planes(msgs) -> np.ndarray:
    """Messages (chips, M, k) as packed bit planes (k, chips, W), eight messages to a byte."""
    return np.packbits(np.ascontiguousarray(msgs.transpose(2, 0, 1)), axis=-1)


def _received(eng: _FaultEngine, cfg: PpvConfig, margins, q, batch):
    """Packed received words, one row per distinct misfire pattern of a ``batch`` of chips.

    A batch is (deviations (chips, cells), branches (chips, splitters),
    messages (chips, M, k), the row function ``draw``), as :func:`_decode`
    returns it.  A point is a row of ``margins``, (points, 4) in
    ``CELL_KINDS`` order, and the same entry of ``q``, (points,).  A cell
    can misfire at a point when its |deviation| exceeds the point's margin
    for its kind, q > 0, and it is not on the clock tree of a ``cfg``
    without clock faults: such a cell's margin is infinite.  Only the
    cells beyond the weakest margin across the points draw misfire rows,
    all in one ``draw`` call.  A cell misfires where its uniform is below
    ``q`` (:func:`_below`).  So chip ``j`` at point ``i`` misfires as fixed
    by (j, q, the cells of j that can misfire at i), and a pair with no
    such cell is fault-free: it gets no row, as the caller scores it from
    the fault-free netlist.  One row is evaluated per distinct key of the
    other pairs, in passes of at most ``_BATCH`` rows.  Returns the
    received words (n, rows, W), the sent message index of each (row,
    message) and the row of each (point, chip), -1 for a fault-free pair.
    """
    dev, branch, msgs, draw = batch
    # each cell's margin at each point, infinite where it cannot misfire
    margins = np.hstack([margins, np.full((len(q), 1), np.inf)])[:, eng.prog.kind_code]
    if not cfg.clock_faults:
        margins[:, eng.prog.on_clock] = np.inf
    margins[q == 0] = np.inf
    chip, cell = (np.abs(dev) > margins.min(axis=0)).nonzero()  # chip-major
    faulty = np.abs(dev[chip, cell]) > margins[:, cell]  # (points, F)
    n_pt, n_chip = len(q), len(dev)
    per_chip = np.bincount(chip, minlength=n_chip)
    first = np.cumsum(per_chip) - per_chip
    # faulty drawn cells as bits per (point, chip), one slot per drawn row of the chip
    bits = np.zeros((n_pt, n_chip, per_chip.max()), dtype=bool)
    bits[:, chip, np.arange(len(chip)) - first[chip]] = faulty
    packed = np.packbits(bits, axis=2)
    pt, ch = packed.any(axis=2).nonzero()  # the pairs that misfire
    qs = sorted(set(q.tolist()))  # np.unique's first call costs ~1 MB of RSS
    q_of = np.searchsorted(qs, q)
    key = np.empty((len(pt), 2 + packed.shape[2]), dtype=np.int32)
    key[:, 0] = ch
    key[:, 1] = q_of[pt]
    key[:, 2:] = packed[pt, ch]
    reps, rank = _distinct(key)
    pt_of, chip_of = pt[reps], ch[reps]
    row = np.full((n_pt, n_chip), -1, dtype=np.intp)
    row[pt, ch] = rank
    r, s = bits[pt_of, chip_of].nonzero()  # faulty (row, slot) pairs, rows ascending
    f = first[chip_of[r]] + s
    words = draw(chip, cell)  # (F, M)
    below = np.array([np.packbits(_below(words, p), axis=-1) for p in qs])  # (Q, F, W)
    masks = below[q_of[pt_of[r]], f]
    cells = cell[f]
    planes = _planes(msgs[chip_of])  # (k, rows, W)
    received = np.empty((len(eng.prog.outputs), *planes.shape[1:]), np.uint8)
    for p in range(0, len(chip_of), _BATCH):  # passes of at most _BATCH rows
        rows, e = slice(p, p + _BATCH), slice(*np.searchsorted(r, (p, p + _BATCH)))
        mis = np.zeros((eng.n_cells, len(chip_of[rows]), masks.shape[-1]), dtype=np.uint8)
        mis[cells[e], r[e] - p] = masks[e]
        received[:, rows] = evaluate(eng.prog, planes[:, rows], mis, branch[chip_of[rows]])
    return received, _word_index(planes, msgs.shape[1]), row


def _score(eng: _FaultEngine, wrong, cfg: PpvConfig, margins, q, batch) -> np.ndarray:
    """Erroneous-message counts (points, chips) under ``cfg``'s accounting.

    ``wrong`` is :func:`_wrong`'s pair of tables.  Each distinct row of
    :func:`_received` is counted once, each message one lookup in the
    (sent, received) table.  A fault-free pair counts the messages the
    fault-free netlist delivers wrong: none for every synthesized setup,
    whose chips are then not looked at.
    """
    table, clean = wrong
    received, sent, row = _received(eng, cfg, margins, q, batch)
    key = sent.astype(np.int32) << len(received)
    key += _word_index(received, sent.shape[1])  # in place: one (rows, M) int32 block, not two
    counts = np.append(np.take(table, key).sum(axis=1), 0)[row]  # a fault-free pair reads the 0
    if clean.any():
        msgs = batch[2]
        counts = np.where(row < 0, clean[_word_index(_planes(msgs), msgs.shape[1])].sum(axis=1),
                          counts)
    return counts


def _own_point(cfg: PpvConfig) -> tuple:
    """``cfg``'s own margins and q as the (1, 4) and (1,) arrays of one point."""
    return np.array([[cfg.margins[k] for k in CELL_KINDS]], float), np.array([cfg.q], float)


def run_trial(setup: EncoderSetup, chip: ChipInstance, cfg: PpvConfig) -> int:
    """Erroneous messages out of n_messages for ``chip`` as given (a batch of one).

    Messages and misfire rows come from ``chip.chip_index``, so a sampled chip
    scores exactly as in :func:`error_counts` and an edited one as edited.  A
    chip sampled from another netlist raises ``ValueError``.
    """
    _checks.count("chip_index", chip.chip_index, 0)
    eng, chips = _FaultEngine(setup.netlist), range(chip.chip_index, chip.chip_index + 1)
    if tuple(chip.cell_ids) != eng.prog.cell_ids:
        raise ValueError(f"chip {chip.chip_index} was sampled from another netlist")
    _, _, msgs, draw = _decode(eng, cfg, _ChipStore(cfg, [eng], chips), chips)
    batch = (np.asarray(chip.deviations)[None], np.asarray(chip.branch_sel)[None], msgs, draw)
    return int(_score(eng, _wrong(eng, setup, cfg), cfg, *_own_point(cfg), batch)[0, 0])


def _error_counts_many(setup: EncoderSetup, cfg: PpvConfig, margins, q,
                       chips: _ChipStore | None = None) -> np.ndarray:
    """Per-chip erroneous-message counts of ``cfg`` at several (margins, q) points.

    ``margins`` is (points, 4) in ``CELL_KINDS`` order and ``q`` is (points,);
    ``cfg`` supplies everything else: the chip material, the accounting and
    the clock model.  Returns shape (points, n_chips); row i equals
    ``error_counts`` of ``cfg`` with point i's margins and q.  Each batch of
    ``_BATCH`` chips is scored at every point (common random numbers), one
    engine row per distinct misfire pattern of the pairs that misfire
    (:func:`_received`), read through one table; the fault-free pairs are
    counted from one fault-free evaluation per call (:func:`_wrong`).
    ``chips``, a :class:`_ChipStore` of ``cfg``'s stream with ``setup``'s head and ``n_chips``
    chips (else ValueError), is drawn once for many calls; without it, batches are dropped.
    """
    eng = _FaultEngine(setup.netlist)
    wrong = _wrong(eng, setup, cfg)
    out = np.empty((len(q), cfg.n_chips), dtype=np.int64)
    for start in range(0, cfg.n_chips, _BATCH):
        batch = range(start, min(start + _BATCH, cfg.n_chips))
        drawn = _decode(eng, cfg, chips or _ChipStore(cfg, [eng], batch), batch)
        out[:, start:batch.stop] = _score(eng, wrong, cfg, margins, q, drawn)
    return out


def error_counts(setup: EncoderSetup, cfg: PpvConfig, chips=None) -> np.ndarray:
    """Per-chip erroneous-message counts for the whole Monte Carlo, from ``chips`` if given."""
    return _error_counts_many(setup, cfg, *_own_point(cfg), chips)[0]


def monte_carlo(setup: EncoderSetup, cfg: PpvConfig, chips=None) -> CdfSeries:
    """Aggregate per-chip error counts into the CDF of N."""
    counts = error_counts(setup, cfg, chips)
    ns = np.arange(cfg.n_messages + 1)
    cdf = np.searchsorted(np.sort(counts), ns, side="right") / cfg.n_chips
    return CdfSeries(ns=ns, cdf=cdf, n_chips=cfg.n_chips)


# -- calibration --------------------------------------------------------------

@dataclass
class CalibrationResult:
    config: PpvConfig
    achieved: dict
    targets: dict
    max_abs_dev: float
    ordering_ok: bool
    converged: bool
    stage: str


def ordered(probs: dict) -> bool:
    """Whether ``probs`` rise strictly in SETUP_NAMES order."""
    vals = [probs[name] for name in SETUP_NAMES]
    return all(a < b for a, b in zip(vals, vals[1:]))


# Calibration stages, searched in order: (name, accounting, margin axes, q grid,
# q moves, grid points polished).  An axis is (kinds sharing one margin factor,
# grid factors, local step); a step of 0 keeps the factor.
_STAGES = (
    # the naive model: one margin for every kind, pessimistic accounting, conservative ties
    ("shared", {"count_detected_errors": True, "tie_break": TIE_CONSERVATIVE},
     ((CELL_KINDS, (0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0), 0.01),),
     (0.01, 0.05, 0.1, 0.3, 1.0), (0.5, 0.7, 1.0, 1.4, 2.0), 1),
    # converters weaker than logic, erasure accounting, delivered ties
    ("split", {"count_detected_errors": False, "tie_break": TIE_OPTIMISTIC},
     (((nl.SFQ2DC,), (0.93, 0.9457, 0.955), 0.004),
      ((nl.XOR,), (0.94, 0.96, 0.97, 0.98), 0.006),
      ((nl.DFF,), (1.0,), 0.0),
      ((nl.SPLITTER,), (0.997, 0.9985, 1.0), 0.0008)),
     (0.12, 0.2, 0.5, 1.0), (0.7, 1.0, 1.4), 2),
)


def _neighbours(point: PpvConfig, moves, q_factors) -> tuple:
    """(points, 4) margins in ``CELL_KINDS`` order and (points,) q around ``point``.

    ``moves`` holds (kinds, offsets) per axis: a neighbour adds one offset per
    axis to its kinds' factors ``margin / spread`` and scales q by one of
    ``q_factors``, clipped to [0, spread] and [0.005, 1], q varying fastest.
    From factors 0 and q 1 the neighbours are exactly the grid of the offsets
    and factors.
    """
    spread = point.spread
    axis = [next(a for a, (kinds, _) in enumerate(moves) if k in kinds) for k in CELL_KINDS]
    shifts = np.array(list(product(*(offsets for _, offsets in moves))), dtype=float)[:, axis]
    margins = np.array([point.margins[k] for k in CELL_KINDS], dtype=float)
    margins = np.clip((margins / spread + shifts) * spread, 0.0, spread)
    q = np.clip(point.q * np.array(q_factors, dtype=float), 0.005, 1.0)
    return np.repeat(margins, len(q), axis=0), np.tile(q, len(margins))


def calibrate_fault_model(targets=None, base: PpvConfig | None = None, *,
                          search_chips: int = 250, refine_chips: int = 500,
                          refine_rounds: int = 2) -> CalibrationResult:
    """Fit fault-model knobs so zero-error probabilities match the targets.

    A stencil search (Hooke & Jeeves, "Direct search solution of numerical
    and statistical problems", JACM 1961) in two stages.  Stage one follows
    the naive model: one shared margin for every cell kind, pessimistic
    accounting (detected-uncorrectable counts as an error), conservative
    ties.  That model cannot reproduce the reference
    ordering -- every encoder carries more unprotectable fault sites than
    the four-converter baseline, and the extended Hamming encoder's flagged
    double errors count against it -- so stage one is scored and reported
    but normally misses ``CALIBRATION_THRESHOLD``.  Stage two splits margins by kind
    (converters weakest, as the large interface cells), counts only
    delivered-wrong messages (flagged failures are erasures), and lets the
    RM decoder deliver its best guess on correlation ties.

    One loop runs the rows of ``_STAGES``.  It ranks a stage's grid (the
    neighbourhood of factors 0 and q 1) at ``search_chips`` chips, moves its
    best points for ``refine_rounds`` rounds at ``refine_chips`` with step
    1 / (round + 1), and re-scores them at ``base.n_chips``, which caps the
    other two counts.  The best so far wins, the earlier on a tie; the search
    stops once it has converged.  Each scoring call scores one config (the
    stage's accounting, one chip count) at many (margins, q) points, all on
    one chip store of ``base``'s chips kept for the whole call.  No score is
    cached: a point met again is scored again.  A config is built only for
    each point kept.
    """
    _checks.integer("refine_rounds", refine_rounds, 0)
    targets = dict(_checks.exact_keys("targets", CALIBRATION_TARGETS if targets is None
                                      else targets, SETUP_NAMES, "configuration"))
    for name, t in targets.items():
        if not 0 <= _checks.number(f"target for {name}", t) <= 1:
            raise ValueError(f"target for {name} must be in [0, 1]: {t}")
    # the ordering constraint only applies when the targets are ordered
    require_order = ordered(targets)
    base = base if base is not None else PpvConfig()
    if not isinstance(base, PpvConfig):
        raise ValueError(f"base must be a PpvConfig, got {base!r}")
    _checks.integer("search_chips", search_chips, 1)
    _checks.integer("refine_chips", refine_chips, 1)
    # no stage scores more chips than the final re-score
    search_chips, refine_chips = min(search_chips, base.n_chips), min(refine_chips, base.n_chips)
    setups = [make_setup(name) for name in SETUP_NAMES]
    # every scored config shares base's chips, each drawn once for every setup
    chips = _ChipStore(base, [_FaultEngine(s.netlist) for s in setups])

    def badness(probs: dict, dev: float):
        return require_order and not ordered(probs), dev

    def ranked(cfg: PpvConfig, margins, q, keep: int) -> list:
        """(config, probs, max |dev|) of ``cfg``'s ``keep`` best points, ties in point order.

        Setups are the outer loop; each scores every point on the kept chips,
        one engine row per distinct misfire pattern (:func:`_received`).
        """
        p0 = {s.name: (_error_counts_many(s, cfg, margins, q, chips) == 0)
              .mean(axis=1).tolist() for s in setups}
        probs = [{name: p[i] for name, p in p0.items()} for i in range(len(q))]
        devs = [max(abs(p[k] - targets[k]) for k in targets) for p in probs]
        order = sorted(range(len(q)), key=lambda i: badness(probs[i], devs[i]))[:keep]
        return [(replace(cfg, margins=dict(zip(CELL_KINDS, margins[i].tolist())),
                         q=float(q[i])), probs[i], devs[i]) for i in order]

    origin = replace(base, margins=dict.fromkeys(CELL_KINDS, 0.0), q=1.0)
    best = None
    for stage, accounting, axes, q_grid, q_moves, polished in _STAGES:
        search, refine, final = (replace(base, n_chips=n, **accounting)
                                 for n in (search_chips, refine_chips, base.n_chips))
        grid = [(kinds, factors) for kinds, factors, _ in axes]
        for cfg, _, _ in ranked(search, *_neighbours(origin, grid, q_grid), polished):
            for r in range(refine_rounds):
                step = 1.0 / (r + 1)
                moves = [(kinds, (-d * step, 0.0, d * step) if d else (0.0,))
                         for kinds, _, d in axes]
                cfg = ranked(refine, *_neighbours(cfg, moves, q_moves), 1)[0][0]
            cfg, probs, dev = ranked(final, *_own_point(cfg), 1)[0]
            if best is None or badness(probs, dev) < badness(*best[2:]):
                best = stage, cfg, probs, dev
        misordered, dev = badness(*best[2:])
        if dev <= CALIBRATION_THRESHOLD and not misordered:
            break
    stage, cfg, probs, dev = best
    return CalibrationResult(cfg, probs, targets, dev, ordered(probs),
                             dev <= CALIBRATION_THRESHOLD and not misordered, stage)
