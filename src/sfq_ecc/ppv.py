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
bit-identical regardless of execution order or worker count.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
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
    pack,
)
from sfq_ecc.netlist import Netlist
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

_FAULTABLE = (nl.XOR, nl.DFF, nl.SPLITTER, nl.SFQ2DC)


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
    margins: Mapping = field(default_factory=lambda: {
        nl.XOR: 0.15, nl.DFF: 0.15, nl.SPLITTER: 0.15, nl.SFQ2DC: 0.15})
    q: float = 0.1
    master_seed: int = 20240
    n_chips: int = 1000
    n_messages: int = 100
    count_detected_errors: bool = True
    tie_break: str = TIE_CONSERVATIVE
    clock_faults: bool = True

    def __post_init__(self):
        if not 0 < self.spread <= 1:
            raise ValueError("spread must be in (0, 1]")
        if not 0 <= self.q <= 1:
            raise ValueError("q must be in [0, 1]")
        if self.distribution not in ("uniform", "gaussian"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.n_chips < 1 or self.n_messages < 1:
            raise ValueError("n_chips and n_messages must be at least 1")
        if self.tie_break not in TIE_POLICIES:
            raise ValueError(f"unknown tie_break {self.tie_break!r}; expected one of "
                             f"{', '.join(TIE_POLICIES)}")
        object.__setattr__(self, "margins", MappingProxyType(dict(self.margins)))
        for kind in _FAULTABLE:
            if kind not in self.margins:
                raise ValueError(f"margins missing kind {kind}")
            if self.margins[kind] < 0:
                raise ValueError("margins must be non-negative")

    def to_dict(self) -> dict:
        return {
            "spread": self.spread,
            "distribution": self.distribution,
            "margins": dict(self.margins),
            "q": self.q,
            "master_seed": self.master_seed,
            "n_chips": self.n_chips,
            "n_messages": self.n_messages,
            "count_detected_errors": self.count_detected_errors,
            "tie_break": self.tie_break,
            "clock_faults": self.clock_faults,
        }

    def __reduce__(self):  # a mappingproxy cannot be pickled or deep-copied
        return type(self).from_dict, (self.to_dict(),)

    @classmethod
    def from_dict(cls, doc: dict) -> "PpvConfig":
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown PPV config keys: {', '.join(map(str, unknown))}")
        doc = dict(doc)
        if "margins" in doc:
            doc["margins"] = {str(k): float(v) for k, v in doc["margins"].items()}
        return cls(**doc)


@dataclass(frozen=True)
class EncoderSetup:
    """One transmit configuration: a netlist plus its decoder (None = raw)."""

    name: str
    netlist: Netlist
    code: LinearCode | None


def baseline_no_encoder(width: int = 4) -> Netlist:
    """Uncoded channel: one SFQ-to-DC converter per message line, no clock."""
    net = Netlist(name="no_encoder")
    for i in range(width):
        net.add_cell(f"m{i + 1}", nl.INPUT)
    net.inputs = [f"m{i + 1}" for i in range(width)]
    outs = []
    for i in range(width):
        conv = net.add_cell(f"o{i}", nl.SFQ2DC)
        net.connect(f"m{i + 1}", conv)
        outs.append(conv)
    net.outputs = outs
    net.validate()
    return net


def make_setup(name: str) -> EncoderSetup:
    if name in ("none", "baseline"):
        return EncoderSetup("none", baseline_no_encoder(), None)
    code = make_code(name)
    return EncoderSetup(name, synthesize(code), code)


@dataclass(frozen=True)
class ChipInstance:
    """One sampled chip: per-cell deviations and derived fault flags."""

    chip_index: int
    cell_ids: tuple
    deviations: np.ndarray
    faulty: np.ndarray
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
        lines = ["n,cdf"]
        for n, p in zip(self.ns, self.cdf):
            lines.append(f"{int(n)},{p:.10g}")
        return "\n".join(lines) + "\n"


class _FaultEngine:
    """Vectorized per-message evaluator of a netlist with cell faults.

    Messages are independent, so the two-stage pipeline is evaluated as one
    dataflow pass per message over the compiled program.  The clock tree is
    evaluated like data: the clock input carries a 1, a misfiring clock
    splitter drops the pulse on its designated branch, and a clocked cell
    whose clock pulse was dropped emits 0 for the message currently at its
    stage (the one-cycle skew between stages is statistically irrelevant
    for i.i.d. messages).
    """

    def __init__(self, net: Netlist, prog: nl.Program):
        self.net = net
        self.prog = prog
        self.index = {cid: i for i, cid in enumerate(prog.cell_ids)}
        self.spl_pos = {i: j for j, i in enumerate(
            i for i, kind in enumerate(prog.kinds) if kind == nl.SPLITTER)}
        self.msg_bit = {i: j for j, i in enumerate(prog.inputs)}

    @property
    def n_cells(self) -> int:
        return len(self.prog.cell_ids)

    @property
    def n_splitters(self) -> int:
        return len(self.spl_pos)

    def margins_vector(self, cfg: PpvConfig) -> np.ndarray:
        m = np.full(self.n_cells, np.inf)
        for i, kind in enumerate(self.prog.kinds):
            if kind in _FAULTABLE:
                m[i] = cfg.margins[kind]
        return m

    def run(self, deviations, branch_sel, misfire_u, messages, cfg: PpvConfig):
        """Evaluate all messages of all chips; returns received bits.

        Shapes: deviations (C, cells), branch_sel (C, splitters),
        misfire_u (C, cells, M), messages (C, M, k) -> received (C, M, n).
        """
        prog = self.prog
        C, M = messages.shape[0], messages.shape[1]
        faulty = np.abs(deviations) > self.margins_vector(cfg)[None, :]
        mis = (misfire_u < cfg.q) & faulty[:, :, None]
        clock = prog.clock if cfg.clock_faults else (None,) * self.n_cells
        val = [None] * (2 * self.n_cells)
        for i in prog.order:
            kind, src = prog.kinds[i], prog.drivers[i]
            if kind == nl.INPUT:
                v = messages[:, :, self.msg_bit[i]]
            elif kind == nl.CLOCK_INPUT:
                v = np.ones((C, M), dtype=np.uint8)
            elif kind == nl.XOR:
                v = (val[src[0]] ^ val[src[1]]) ^ mis[:, i, :]
            elif kind == nl.SPLITTER:
                a, drop = val[src[0]], mis[:, i, :]
                sel = branch_sel[:, self.spl_pos[i]]
                val[2 * i] = a & ~(drop & (sel == 0)[:, None])
                val[2 * i + 1] = a & ~(drop & (sel == 1)[:, None])
                continue
            else:  # DFF and SFQ2DC drop their pulse
                v = val[src[0]] & ~mis[:, i, :]
            if clock[i] is not None:
                v = v & val[clock[i]]
            val[2 * i] = v
        received = np.stack([val[2 * o] for o in prog.outputs], axis=-1)
        return received.astype(np.uint8)


_ENGINES: dict = {}


def _engine(net: Netlist) -> _FaultEngine:
    """The fault engine of ``net``'s structure, built once per distinct netlist.

    Keyed by the compiled program, which :func:`netlist.compile` shares
    between netlists of equal content, so re-synthesized copies share one
    engine and a netlist mutated after use gets a new one.  The engine
    keeps a private copy of the netlist, so a later mutation cannot reach
    a cached engine.
    """
    prog = nl.compile(net)
    eng = _ENGINES.get(prog)
    if eng is None:
        eng = _ENGINES[prog] = _FaultEngine(copy.deepcopy(net), prog)
    return eng


def _chip_material(eng: _FaultEngine, cfg: PpvConfig, chip_index: int):
    """All randomness of one chip, in a fixed draw order."""
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
    k = len(eng.net.inputs)
    msgs = rng.integers(0, 2, (cfg.n_messages, k), dtype=np.uint8)
    mis_u = rng.random((eng.n_cells, cfg.n_messages))
    return dev, branch, msgs, mis_u


def sample_chip(net: Netlist, cfg: PpvConfig, chip_index: int) -> ChipInstance:
    """Draw one chip instance; deterministic in (master_seed, chip_index)."""
    eng = _engine(net)
    dev, branch, _, _ = _chip_material(eng, cfg, chip_index)
    faulty = np.abs(dev) > eng.margins_vector(cfg)
    return ChipInstance(
        chip_index=chip_index,
        cell_ids=eng.prog.cell_ids,
        deviations=dev,
        faulty=faulty,
        branch_sel=branch,
    )


def inject_and_run(net: Netlist, chip: ChipInstance, message, cfg: PpvConfig,
                   trial_rng=None) -> np.ndarray:
    """Send one message through the faulted netlist; returns received bits."""
    eng = _engine(net)
    rng = trial_rng if trial_rng is not None else np.random.default_rng(
        np.random.SeedSequence((cfg.master_seed, chip.chip_index, 0)))
    mis_u = rng.random((1, eng.n_cells, 1))
    msgs = np.asarray(message, dtype=np.uint8).reshape(1, 1, -1)
    received = eng.run(chip.deviations[None, :], chip.branch_sel[None, :],
                       mis_u, msgs, cfg)
    return received[0, 0]


def _count_errors(setup: EncoderSetup, received, messages, cfg: PpvConfig):
    """Erroneous-message mask per (chip, message)."""
    sent_idx = pack(messages)
    if setup.code is None:
        return pack(received) != sent_idx
    delivered = setup.code.decode_table(CORRECT, cfg.tie_break)[pack(received)]
    wrong = delivered != sent_idx
    return wrong if cfg.count_detected_errors else wrong & (delivered >= 0)


def run_trial(setup: EncoderSetup, chip: ChipInstance, cfg: PpvConfig) -> int:
    """Erroneous messages out of n_messages for one chip."""
    eng = _engine(setup.netlist)
    dev, branch, msgs, mis_u = _chip_material(eng, cfg, chip.chip_index)
    received = eng.run(dev[None, :], branch[None, :], mis_u[None, :, :],
                       msgs[None, :, :], cfg)
    errors = _count_errors(setup, received, msgs[None, :, :], cfg)
    return int(errors.sum())


def _error_counts_many(setup: EncoderSetup, cfgs, batch: int = 250) -> np.ndarray:
    """Per-chip erroneous-message counts under several fault-model configs.

    Returns shape (len(cfgs), n_chips); row i equals ``error_counts(setup,
    cfgs[i])``.  The configs must share the chip material (seed, chip count,
    spread, distribution, message count): each batch of chips is drawn once
    and scored under every config (common random numbers), and its buffers
    are reused for the next batch.
    """
    cfg0 = cfgs[0]
    material = lambda c: (c.master_seed, c.n_chips, c.spread, c.distribution, c.n_messages)
    if any(material(c) != material(cfg0) for c in cfgs):
        raise ValueError("configs scored together must share their chip material")
    eng = _engine(setup.netlist)
    n_chips, n_msg = cfg0.n_chips, cfg0.n_messages
    size = min(batch, n_chips)
    devs = np.empty((size, eng.n_cells))
    branches = np.empty((size, eng.n_splitters), dtype=np.int64)
    msgs = np.empty((size, n_msg, len(eng.net.inputs)), dtype=np.uint8)
    mis = np.empty((size, eng.n_cells, n_msg))
    out = np.empty((len(cfgs), n_chips), dtype=np.int64)
    for start in range(0, n_chips, batch):
        c = min(batch, n_chips - start)
        for j in range(c):
            devs[j], branches[j], msgs[j], mis[j] = _chip_material(eng, cfg0, start + j)
        d, b, m, u = devs[:c], branches[:c], msgs[:c], mis[:c]
        for i, cfg in enumerate(cfgs):
            received = eng.run(d, b, u, m, cfg)
            out[i, start:start + c] = _count_errors(setup, received, m, cfg).sum(axis=1)
    return out


def error_counts(setup: EncoderSetup, cfg: PpvConfig, batch: int = 250) -> np.ndarray:
    """Per-chip erroneous-message counts for the whole Monte Carlo."""
    return _error_counts_many(setup, [cfg], batch)[0]


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

    def deviations(self) -> dict:
        return {k: self.achieved[k] - self.targets[k] for k in self.targets}


def _ordering_ok(probs: dict) -> bool:
    vals = [probs[name] for name in SETUP_NAMES]
    return all(a < b for a, b in zip(vals, vals[1:]))


def _margins(spread, conv, xor, dff, spl):
    clip = lambda f: min(spread, max(0.0, f * spread))
    return {nl.XOR: clip(xor), nl.DFF: clip(dff),
            nl.SPLITTER: clip(spl), nl.SFQ2DC: clip(conv)}


def _shared_margin_grid(spread):
    for rho_f in (0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0):
        for q in (0.01, 0.05, 0.1, 0.3, 1.0):
            yield _margins(spread, rho_f, rho_f, rho_f, rho_f), q, True, TIE_CONSERVATIVE


def _split_margin_grid(spread):
    """Converters weaker than logic, erasure accounting, delivered ties."""
    for cf in (0.93, 0.9457, 0.955):
        for xf in (0.94, 0.96, 0.97, 0.98):
            for sf in (0.997, 0.9985, 1.0):
                for q in (0.12, 0.2, 0.5, 1.0):
                    yield _margins(spread, cf, xf, 1.0, sf), q, False, TIE_OPTIMISTIC


def _neighborhood(cfg: PpvConfig, step: float, shared: bool = False):
    """Local moves on the margins and q (all kinds together when shared)."""
    spread = cfg.spread
    cf = cfg.margins[nl.SFQ2DC] / spread
    xf = cfg.margins[nl.XOR] / spread
    df = cfg.margins[nl.DFF] / spread
    sf = cfg.margins[nl.SPLITTER] / spread
    if shared:
        for dr in (-0.01 * step, 0.0, 0.01 * step):
            for fq in (0.5, 0.7, 1.0, 1.4, 2.0):
                q = min(1.0, max(0.005, cfg.q * fq))
                yield (_margins(spread, cf + dr, xf + dr, df + dr, sf + dr),
                       q, cfg.count_detected_errors, cfg.tie_break)
        return
    for dc in (-0.004 * step, 0.0, 0.004 * step):
        for dx in (-0.006 * step, 0.0, 0.006 * step):
            for ds in (-0.0008 * step, 0.0, 0.0008 * step):
                for fq in (0.7, 1.0, 1.4):
                    q = min(1.0, max(0.005, cfg.q * fq))
                    yield (_margins(spread, cf + dc, xf + dx, df, sf + ds),
                           q, cfg.count_detected_errors, cfg.tie_break)


def calibrate_fault_model(targets=None, base: PpvConfig | None = None,
                          threshold: float = 0.05, search_chips: int = 250,
                          refine_chips: int = 500, refine_rounds: int = 2) -> CalibrationResult:
    """Fit fault-model knobs so zero-error probabilities match the targets.

    Stage one follows the naive model: one shared margin for every cell
    kind, pessimistic accounting (detected-uncorrectable counts as an
    error), conservative ties.  That model cannot reproduce the reference
    ordering -- every encoder carries more unprotectable fault sites than
    the four-converter baseline, and the extended Hamming encoder's flagged
    double errors count against it -- so stage one is scored and reported
    but normally fails the threshold.  Stage two splits margins by kind
    (converters weakest, as the large interface cells), counts only
    delivered-wrong messages (flagged failures are erasures), and lets the
    RM decoder deliver its best guess on correlation ties.  Candidates are
    scored at ``search_chips`` chips, locally refined, and finalists
    re-scored at the full configured chip count.
    """
    targets = dict(CALIBRATION_TARGETS if targets is None else targets)
    for name, t in targets.items():
        if not 0 <= t <= 1:
            raise ValueError(f"target for {name} must be in [0, 1]: {t}")
    # the ordering constraint only applies when the targets are ordered
    tvals = [targets[name] for name in SETUP_NAMES]
    require_order = all(a < b for a, b in zip(tvals, tvals[1:]))
    base = base if base is not None else PpvConfig()
    setups = [make_setup(name) for name in SETUP_NAMES]
    cache: dict = {}

    def badness(probs: dict, dev: float):
        return require_order and not _ordering_ok(probs), dev

    def ranked(cfgs) -> list:
        """(cfg, probs, max |dev|) per config, best first.

        Setups are the outer loop: every config missing from the cache is
        scored on one shared draw of that setup's chips.  The cache key
        keeps only the margins of kinds the netlist has, so configs that
        differ elsewhere share one evaluation.
        """
        probs = [{} for _ in cfgs]
        for s in setups:
            kinds = {c.kind for c in s.netlist.cells.values()}
            keys = [(s.name, cfg.n_chips, cfg.master_seed, cfg.q,
                     cfg.count_detected_errors, cfg.tie_break, cfg.distribution,
                     tuple(sorted((k, v) for k, v in cfg.margins.items() if k in kinds)))
                    for cfg in cfgs]
            missing = {key: cfg for key, cfg in zip(keys, cfgs) if key not in cache}
            if missing:
                counts = _error_counts_many(s, list(missing.values()))
                for key, row in zip(missing, counts):
                    cache[key] = float((row == 0).mean())
            for p, key in zip(probs, keys):
                p[s.name] = cache[key]
        scored = [(cfg, p, max(abs(p[k] - targets[k]) for k in targets))
                  for cfg, p in zip(cfgs, probs)]
        # stable: ties keep candidate order
        scored.sort(key=lambda r: badness(r[1], r[2]))
        return scored

    def grid(points, n_chips) -> list:
        return [replace(base, margins=margins, q=q, count_detected_errors=count_det,
                        tie_break=ties, n_chips=n_chips)
                for margins, q, count_det, ties in points]

    def polish(cfg: PpvConfig, shared: bool = False) -> PpvConfig:
        for r in range(refine_rounds):
            cfg = ranked(grid(_neighborhood(cfg, 1.0 / (r + 1), shared=shared),
                              refine_chips))[0][0]
        return cfg

    def finalize(cfg: PpvConfig):
        return ranked([replace(cfg, n_chips=base.n_chips)])[0]

    candidates = []

    # stage 1: the naive shared-margin sweep
    best1 = ranked(grid(_shared_margin_grid(base.spread), search_chips))[0][0]
    cfg1, probs1, dev1 = finalize(polish(best1, shared=True))
    candidates.append(("shared", cfg1, probs1, dev1))
    if dev1 <= threshold and (_ordering_ok(probs1) or not require_order):
        return CalibrationResult(cfg1, probs1, targets, dev1,
                                 _ordering_ok(probs1), True, "shared")

    # stage 2: split margins + erasure accounting + delivered ties
    for seed_cfg, _, _ in ranked(grid(_split_margin_grid(base.spread), search_chips))[:2]:
        cfg2, probs2, dev2 = finalize(polish(seed_cfg))
        candidates.append(("split", cfg2, probs2, dev2))

    stage, cfg, probs, dev = min(candidates, key=lambda c: badness(c[2], c[3]))
    converged = dev <= threshold and (_ordering_ok(probs) or not require_order)
    return CalibrationResult(cfg, probs, targets, dev, _ordering_ok(probs),
                             converged, stage)
