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
bit-identical regardless of execution order, batch size or worker count.

Each chip draws from its own PCG64 stream in a fixed order: one deviation
per cell, one branch per splitter, the (n_messages, k) message bits, then
a (cells, n_messages) block of misfire uniforms, row by row.  A chip's
material is the first three and its generator, standing at the block; rows
are drawn on demand, only those of cells faulty under the weakest margins
being scored, moving between rows with ``bit_generator.advance``.  That is
exact in both directions, because PCG64's period is 2**128 and
``Generator.random`` consumes one 64-bit output per double, so material
kept across calls (a calibration draws each chip once) serves any margins.

One function, :func:`_received`, applies the fault model to a batch of chip
material under every config of a call: it alone compares deviations with
margins and draws misfire rows, and it evaluates the batch in bit-packed
passes of :func:`sfq_ecc.sim.evaluate`.  Messages pack eight to a byte,
every gate is one bitwise operation over all of them (bit-parallel pattern
fault simulation, as in Waicukauski et al., "Fault simulation for
structured VLSI", 1985), and each distinct (chip, q, faulty drawn cells) is
one row, evaluated and counted once however many configs share it; a
single chip is a batch of one.  A config with ``clock_faults=False`` clears
the misfires of its clock-tree cells.
"""

from __future__ import annotations

import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from itertools import product
from types import MappingProxyType

import numpy as np

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


def _require_number(name: str, value):
    """``value`` if it is a real number (not a bool), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _require_int(name: str, value):
    """``value`` if it is an integer (not a bool), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _margin(kind, value) -> float:
    """``value`` as a float if it is a finite non-negative number, else ValueError.

    Compared before conversion, so an integer too large for a float is
    rejected as infinite rather than raising ``OverflowError``.
    """
    if not 0 <= _require_number(f"margin of {kind}", value) <= sys.float_info.max:
        raise ValueError(f"margin of {kind} must be finite and non-negative, got {value!r}")
    return float(value)


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
    ties).  ``margins`` is stored as a read-only copy, so neither the
    caller's dict nor the config can change after validation.
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
            _require_number(name, getattr(self, name))
        for name in ("master_seed", "n_chips", "n_messages"):
            _require_int(name, getattr(self, name))
        for name in ("count_detected_errors", "clock_faults"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.margins, Mapping):
            raise ValueError(f"margins must map cell kind to margin, got {self.margins!r}")
        if not 0 < self.spread <= 1:
            raise ValueError("spread must be in (0, 1]")
        if not 0 <= self.q <= 1:
            raise ValueError("q must be in [0, 1]")
        if self.distribution not in ("uniform", "gaussian"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.n_chips < 1 or self.n_messages < 1:
            raise ValueError("n_chips and n_messages must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.tie_break not in TIE_POLICIES:
            raise ValueError(f"unknown tie_break {self.tie_break!r}; expected one of "
                             f"{', '.join(TIE_POLICIES)}")
        object.__setattr__(self, "margins", MappingProxyType(dict(self.margins)))
        for kind in CELL_KINDS:
            if kind not in self.margins:
                raise ValueError(f"margins missing kind {kind}")
            _margin(kind, self.margins[kind])
        unknown = sorted(set(self.margins) - set(CELL_KINDS), key=str)
        if unknown:
            raise ValueError(f"margins name unknown cell kind {unknown[0]!r}; expected "
                             f"{', '.join(CELL_KINDS)}")
        # margins in CELL_KINDS order, then inf for the kinds that never fault
        kind_margins = np.array([self.margins[k] for k in CELL_KINDS] + [np.inf], dtype=float)
        kind_margins.flags.writeable = False
        object.__setattr__(self, "_kind_margins", kind_margins)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "margins": dict(self.margins)}

    def __reduce__(self):  # a mappingproxy cannot be pickled or deep-copied
        return type(self).from_dict, (self.to_dict(),)

    @classmethod
    def from_dict(cls, doc: dict) -> "PpvConfig":
        if not isinstance(doc, Mapping):
            raise ValueError(f"a PPV config must be a mapping, got {doc!r}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
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


def baseline_no_encoder() -> Netlist:
    """Uncoded channel: one SFQ-to-DC converter per line of a 4-bit message, no clock."""
    net = Netlist(name="no_encoder")
    for i in range(4):
        net.add_cell(f"m{i + 1}", nl.INPUT)
    net.inputs = [f"m{i + 1}" for i in range(4)]
    outs = []
    for i in range(4):
        conv = net.add_cell(f"o{i}", nl.SFQ2DC)
        net.connect(f"m{i + 1}", conv)
        outs.append(conv)
    net.outputs = outs
    net.validate()
    return net


def make_setup(name: str) -> EncoderSetup:
    if name not in SETUP_NAMES:
        raise ValueError(f"unknown setup {name!r}; expected one of {', '.join(SETUP_NAMES)}")
    if name == "none":
        return EncoderSetup(name, baseline_no_encoder(), LinearCode(name, np.eye(4)))
    code = make_code(name)
    return EncoderSetup(name, synthesize(code), code)


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
    """Per-netlist arrays of the bit-packed fault evaluation.

    Built per call on the program :func:`netlist.compile` caches by content;
    callers run it with :func:`sfq_ecc.sim.evaluate`.  ``on_clock`` marks the
    clock tree, whose misfires a config with ``clock_faults=False`` clears.
    """

    def __init__(self, net: Netlist):
        self.net = net
        self.prog = prog = nl.compile(net)
        # position in CELL_KINDS per cell; len(CELL_KINDS) for cells that never fault
        self.kind_code = np.array([CELL_KINDS.index(k) if k in CELL_KINDS else len(CELL_KINDS)
                                   for k in prog.kinds], dtype=np.intp)
        self.on_clock = np.zeros(len(prog.kinds), dtype=bool)
        self.on_clock[list(prog.clock_tree)] = True

    @property
    def n_cells(self) -> int:
        return len(self.prog.cell_ids)

    @property
    def n_splitters(self) -> int:
        return len(self.prog.splitters)


def _chip_material(eng: _FaultEngine, cfg: PpvConfig, chip_index: int):
    """All randomness of one chip, in a fixed draw order.

    Deviations, splitter branches, messages, then a (cells, n_messages)
    block of misfire uniforms.  Returns the first three and a
    :func:`_misfire_rows` function over the chip's generator, which stands at
    the start of the block.  Nothing drawn depends on margins or ``q``, so
    one material serves every config that shares the seed, spread,
    distribution and message count.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, chip_index)))
    if cfg.distribution == "uniform":
        dev = rng.uniform(-cfg.spread, cfg.spread, eng.n_cells)
    else:
        dev = rng.normal(0.0, cfg.spread / 2.0, eng.n_cells)
        while True:
            bad = np.abs(dev) > cfg.spread
            if not bad.any():
                break
            dev[bad] = rng.normal(0.0, cfg.spread / 2.0, int(bad.sum()))
    branch = rng.integers(0, 2, eng.n_splitters)
    msgs = rng.integers(0, 2, (cfg.n_messages, len(eng.net.inputs)), dtype=np.uint8)
    return dev, branch, msgs, _misfire_rows(rng.bit_generator, cfg.n_messages)


def _misfire_rows(bitgen: np.random.PCG64, n_messages: int):
    """A function that draws rows of the misfire block ``bitgen`` stands at the start of.

    It takes an array of cell indices, any set in any order, and returns
    their (cells, n_messages) rows.  A cursor moves the generator between
    rows with ``advance`` modulo PCG64's period, 2**128, which is exact
    backwards too, and ``Generator.random`` takes exactly one 64-bit output
    per double, so every drawn row equals the same row of the full block.
    Only the bit generator is kept: a ``Generator`` holds a kilobyte more.
    """
    pos = 0  # the row the generator stands at

    def rows(cells) -> np.ndarray:
        nonlocal pos
        out = np.empty((len(cells), n_messages))
        random = np.random.Generator(bitgen).random
        for row, cell in zip(out, cells.tolist()):
            if cell != pos:
                bitgen.advance(((cell - pos) * n_messages) % _PCG64_PERIOD)
            random(out=row)
            pos = cell + 1
        return out

    return rows


def sample_chip(net: Netlist, cfg: PpvConfig, chip_index: int) -> ChipInstance:
    """Draw one chip instance; deterministic in (master_seed, chip_index)."""
    eng = _FaultEngine(net)
    dev, branch, *_ = _chip_material(eng, cfg, chip_index)
    return ChipInstance(chip_index, eng.prog.cell_ids, dev, branch)


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


def _wrong(setup: EncoderSetup, tie_break: str, count_detected_errors: bool) -> np.ndarray:
    """Whether a message counts as erroneous, per (sent index, received word)."""
    delivered = setup.code.decode_table(CORRECT, tie_break)
    wrong = delivered != np.arange(1 << len(setup.netlist.inputs))[:, None]
    return wrong if count_detected_errors else wrong & (delivered >= 0)


def _distinct(key) -> tuple:
    """The first index of each distinct row of ``key``, sorted, and each row's rank among them."""
    order = np.lexsort(key.T[::-1])  # the first column most significant
    ranked = key[order]
    new = np.ones(len(key), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    rank = np.empty(len(key), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return order[new], rank


def _received(eng: _FaultEngine, cfgs, materials):
    """Packed received words, one row per distinct misfire pattern of chip ``materials``.

    A material is (deviations, branches, (M, k) messages, misfire-row
    function), as :func:`_chip_material` returns it.  Materials are read one
    at a time, so an iterator of fresh draws holds one chip's generator at a
    time.  A cell is faulty under a config when its |deviation| exceeds the
    config's margin for its kind; only the cells beyond the weakest margin
    across ``cfgs`` draw misfire rows.  A faulty cell misfires where its
    uniform is below ``q``, except on the clock tree when the configs, which
    share their clock model, have no clock faults.  So chip ``j`` under
    ``cfgs[i]`` misfires as fixed by (j, q, the faulty cells among j's drawn
    ones), and q does not matter without faulty cells.  One row is evaluated
    per distinct key, in passes of at most ``_BATCH`` rows; ``u < q`` is
    packed once per distinct q.  The key begins with the chip, so a single
    config gives each chip its own row.  Returns the received words (n, rows,
    W), the sent message index of each (row, message) and the row of each
    (config, chip).
    """
    margins = np.array([c._kind_margins for c in cfgs])[:, eng.kind_code]  # (configs, cells)
    weakest = margins.min(axis=0)
    drawn = []
    for dev, branch, msgs, rows in materials:
        cells = (np.abs(dev) > weakest).nonzero()[0]
        drawn.append((np.abs(dev[cells]), branch, msgs, cells, rows(cells)))
    dev, branch, msgs, cells, u = zip(*drawn)
    del drawn
    u = np.concatenate(u)  # (F, M) misfire uniforms; the per-chip rows are freed here
    n_cfg, n_chip = len(cfgs), len(cells)
    chip = np.repeat(np.arange(n_chip), [len(c) for c in cells])  # (F,) chip of each row
    cell = np.concatenate(cells)
    faulty = ((np.concatenate(dev) > margins[:, cell])
              & (cfgs[0].clock_faults | ~eng.on_clock[cell]))  # (configs, F)
    # faulty drawn cells as bits per (config, chip), one slot per drawn row of the chip
    per_chip = np.bincount(chip, minlength=n_chip)
    first = np.cumsum(per_chip) - per_chip
    bits = np.zeros((n_cfg, n_chip, per_chip.max()), dtype=bool)
    bits[:, chip, np.arange(len(chip)) - first[chip]] = faulty
    qs = sorted({c.q for c in cfgs})
    q_of = np.array([qs.index(c.q) for c in cfgs])
    packed = np.packbits(bits, axis=2)
    key = np.empty((n_cfg, n_chip, 2 + packed.shape[2]), dtype=np.int32)
    key[..., 0] = np.arange(n_chip)
    key[..., 1] = np.where(packed.any(axis=2), q_of[:, None], -1)
    key[..., 2:] = packed
    reps, row = _distinct(key.reshape(n_cfg * n_chip, -1))
    cfg_of, chip_of = np.divmod(reps, n_chip)
    below = np.array([np.packbits(u < q, axis=-1) for q in qs])  # (Q, F, W)
    r, s = bits[cfg_of, chip_of].nonzero()  # faulty (row, slot) pairs, rows ascending
    f = first[chip_of[r]] + s
    masks = below[q_of[cfg_of[r]], f]
    cells = cell[f]
    msgs = np.packbits(np.ascontiguousarray(np.array(msgs).transpose(2, 0, 1)), axis=-1)
    branch = np.array(branch)
    received = []
    for p in range(0, len(chip_of), _BATCH):  # passes of at most _BATCH rows
        rows, e = chip_of[p:p + _BATCH], slice(*np.searchsorted(r, (p, p + _BATCH)))
        mis = np.zeros((eng.n_cells, len(rows), masks.shape[-1]), dtype=np.uint8)
        mis[cells[e], r[e] - p] = masks[e]
        received.append(evaluate(eng.prog, msgs[:, rows], mis, branch[rows]))
    sent = _word_index(msgs, u.shape[1])  # (chips, M), gathered per row
    return np.concatenate(received, axis=1), sent[chip_of], row.reshape(n_cfg, n_chip)


def _score(eng: _FaultEngine, setup: EncoderSetup, cfgs, materials) -> np.ndarray:
    """Erroneous-message counts (configs, chips) under ``cfgs[0]``'s accounting.

    Each distinct row of :func:`_received` is counted once; each message is
    one lookup in the (sent, received) table.
    """
    received, sent, row = _received(eng, cfgs, materials)
    key = sent.astype(np.int32) << len(received)
    key += _word_index(received, sent.shape[1])  # in place: one (rows, M) int32 block, not two
    wrong = _wrong(setup, cfgs[0].tie_break, cfgs[0].count_detected_errors)
    return np.take(wrong, key).sum(axis=1)[row]


def run_trial(setup: EncoderSetup, chip: ChipInstance, cfg: PpvConfig) -> int:
    """Erroneous messages out of n_messages for ``chip`` as given (a batch of one).

    Messages and misfire rows come from ``chip.chip_index``.
    """
    eng = _FaultEngine(setup.netlist)
    if tuple(chip.cell_ids) != eng.prog.cell_ids:
        raise ValueError(f"chip {chip.chip_index} was sampled from another netlist")
    _, _, msgs, rows = _chip_material(eng, cfg, chip.chip_index)
    return int(_score(eng, setup, [cfg], [(chip.deviations, chip.branch_sel, msgs, rows)])[0, 0])


def _error_counts_many(setup: EncoderSetup, cfgs, materials=None) -> np.ndarray:
    """Per-chip erroneous-message counts under several fault-model configs.

    Returns shape (len(cfgs), n_chips); row i equals ``error_counts(setup,
    cfgs[i])``.  The configs must share the chip material (seed, chip count,
    spread, distribution, message count), the accounting (detected-error
    counting, tie policy) and the clock model; they differ only in margins
    and ``q``.  Each batch of ``_BATCH`` chips is scored under every config
    (common random numbers), one engine row per distinct misfire pattern
    (:func:`_received`), read through one table.
    ``materials``, when given, is a list of :func:`_chip_material` results
    for chips 0, 1, ... that the caller keeps across calls whose configs
    share chip material; missing chips are drawn and appended, so none is
    drawn twice.
    """
    cfg0 = cfgs[0]
    shared = lambda c: (c.master_seed, c.n_chips, c.spread, c.distribution, c.n_messages,
                        c.count_detected_errors, c.tie_break, c.clock_faults)
    if any(shared(c) != shared(cfg0) for c in cfgs):
        raise ValueError("configs scored together must share their chip material, "
                         "accounting and clock model")
    eng = _FaultEngine(setup.netlist)
    out = np.empty((len(cfgs), cfg0.n_chips), dtype=np.int64)
    for start in range(0, cfg0.n_chips, _BATCH):
        stop = min(start + _BATCH, cfg0.n_chips)
        if materials is None:  # nothing kept: each chip is drawn and dropped
            batch = (_chip_material(eng, cfg0, i) for i in range(start, stop))
        else:
            materials += [_chip_material(eng, cfg0, i) for i in range(len(materials), stop)]
            batch = materials[start:stop]
        out[:, start:stop] = _score(eng, setup, cfgs, batch)
    return out


def error_counts(setup: EncoderSetup, cfg: PpvConfig) -> np.ndarray:
    """Per-chip erroneous-message counts for the whole Monte Carlo."""
    return _error_counts_many(setup, [cfg])[0]


def monte_carlo(setup: EncoderSetup, cfg: PpvConfig) -> CdfSeries:
    """Aggregate per-chip error counts into the CDF of N."""
    counts = error_counts(setup, cfg)
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


def _neighbours(point: PpvConfig, moves, q_factors, **fields):
    """Configs around ``point``, q varying fastest, with ``fields`` replaced.

    ``moves`` holds (kinds, offsets) per axis: a neighbour adds one offset per
    axis to its kinds' factors ``margin / spread`` and scales q by one of
    ``q_factors``, clipped to [0, spread] and [0.005, 1].  From factors 0 and
    q 1 the neighbours are exactly the grid of the offsets and factors.
    """
    spread = point.spread
    for move in product(*(offsets for _, offsets in moves)):
        shift = {k: d for (kinds, _), d in zip(moves, move) for k in kinds}
        margins = {k: min(spread, max(0.0, (point.margins[k] / spread + shift[k]) * spread))
                   for k in CELL_KINDS}
        for f in q_factors:
            yield replace(point, margins=margins, q=min(1.0, max(0.005, point.q * f)), **fields)


def calibrate_fault_model(targets=None, base: PpvConfig | None = None, *,
                          search_chips: int = 250, refine_chips: int = 500,
                          refine_rounds: int = 2) -> CalibrationResult:
    """Fit fault-model knobs so zero-error probabilities match the targets.

    Stage one follows the naive model: one shared margin for every cell
    kind, pessimistic accounting (detected-uncorrectable counts as an
    error), conservative ties.  That model cannot reproduce the reference
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
    stops once it has converged.  Each scoring call holds one stage's
    configs, so it scores one accounting.
    """
    if _require_int("refine_rounds", refine_rounds) < 0:
        raise ValueError(f"refine_rounds must be a non-negative integer: {refine_rounds!r}")
    if not isinstance(targets, (Mapping, type(None))):
        raise ValueError(f"targets must map configuration name to probability: {targets!r}")
    targets = dict(CALIBRATION_TARGETS if targets is None else targets)
    odd = sorted(set(targets) ^ set(SETUP_NAMES), key=str)
    if odd:
        raise ValueError(f"targets must name exactly {', '.join(SETUP_NAMES)}; "
                         f"{odd[0]!r} is {'unknown' if odd[0] in targets else 'missing'}")
    for name, t in targets.items():
        if not 0 <= _require_number(f"target for {name}", t) <= 1:
            raise ValueError(f"target for {name} must be in [0, 1]: {t}")
    # the ordering constraint only applies when the targets are ordered
    require_order = ordered(targets)
    base = base if base is not None else PpvConfig()
    # no stage scores more chips than the final re-score; replace() checks each count
    search_chips, refine_chips = (min(replace(base, n_chips=n).n_chips, base.n_chips)
                                  for n in (search_chips, refine_chips))
    setups = [make_setup(name) for name in SETUP_NAMES]
    # every config shares base's chip material: each chip is drawn once per setup
    materials = {s.name: [] for s in setups}

    def badness(probs: dict, dev: float):
        return require_order and not ordered(probs), dev

    def ranked(cfgs) -> list:
        """(cfg, probs, max |dev|) per config, best first.

        Setups are the outer loop; each scores every config on its kept chip
        material, one engine row per distinct misfire pattern (:func:`_received`).
        """
        probs = [{} for _ in cfgs]
        for s in setups:
            for p, row in zip(probs, _error_counts_many(s, cfgs, materials[s.name])):
                p[s.name] = float((row == 0).mean())
        scored = [(cfg, p, max(abs(p[k] - targets[k]) for k in targets))
                  for cfg, p in zip(cfgs, probs)]
        # stable: ties keep candidate order
        scored.sort(key=lambda r: badness(r[1], r[2]))
        return scored

    origin = replace(base, margins=dict.fromkeys(CELL_KINDS, 0.0), q=1.0)
    best = None
    for stage, accounting, axes, q_grid, q_moves, polished in _STAGES:
        grid = [(kinds, factors) for kinds, factors, _ in axes]
        for cfg, _, _ in ranked(list(_neighbours(origin, grid, q_grid, n_chips=search_chips,
                                                 **accounting)))[:polished]:
            for r in range(refine_rounds):
                step = 1.0 / (r + 1)
                moves = [(kinds, (-d * step, 0.0, d * step) if d else (0.0,))
                         for kinds, _, d in axes]
                cfg = ranked(list(_neighbours(cfg, moves, q_moves, n_chips=refine_chips)))[0][0]
            cfg, probs, dev = ranked([replace(cfg, n_chips=base.n_chips)])[0]
            if best is None or badness(probs, dev) < badness(*best[2:]):
                best = stage, cfg, probs, dev
        misordered, dev = badness(*best[2:])
        if dev <= CALIBRATION_THRESHOLD and not misordered:
            break
    stage, cfg, probs, dev = best
    return CalibrationResult(cfg, probs, targets, dev, ordered(probs),
                             dev <= CALIBRATION_THRESHOLD and not misordered, stage)
