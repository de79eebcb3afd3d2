"""Process-variation fault injection: chips, trials, CDFs, calibration plumbing."""

import contextlib
import copy
import dataclasses
import io
import json
import pickle
import tempfile
from importlib import resources
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfq_ecc import netlist as nl
from sfq_ecc import ppv
from sfq_ecc.cli import main
from sfq_ecc.codes import (
    CORRECT,
    TIE_CONSERVATIVE,
    TIE_OPTIMISTIC,
    LinearCode,
    decode,
    encode,
    make_code,
)
from sfq_ecc.ppv import (
    SETUP_NAMES,
    CdfSeries,
    EncoderSetup,
    PpvConfig,
    _FaultEngine,
    _error_counts_many,
    calibrate_fault_model,
    error_counts,
    make_setup,
    monte_carlo,
    no_encoder,
    run_trial,
    sample_chip,
)
from sfq_ecc.sim import evaluate
from sfq_ecc.synth import synthesize

KINDS = ("XOR", "DFF", "SPLITTER", "SFQ2DC")


def margins(**kv):
    base = {k: 0.2 for k in KINDS}
    base.update(kv)
    return base


def no_fault_cfg(**over):
    return PpvConfig(margins=margins(), **over)


def points(*cfgs):
    """The (margins, q) point arrays of ``cfgs``: (configs, 4) in KINDS order and (configs,)."""
    return (np.array([[c.margins[k] for k in KINDS] for c in cfgs], dtype=float),
            np.array([c.q for c in cfgs], dtype=float))


def at_points(cfg, margins, q):
    """``cfg`` at each (margins, q) point: the configs a many-point call stands for."""
    return [dataclasses.replace(cfg, margins=dict(zip(KINDS, m)), q=p)
            for m, p in zip(margins.tolist(), q.tolist())]


def chip_with_only(setup, cfg, cell_id, dev=1.0):
    """A chip whose single out-of-margin cell is ``cell_id``."""
    eng = _FaultEngine(setup.netlist)
    chip = sample_chip(setup.netlist, cfg, 0)
    d = np.zeros(eng.n_cells)
    d[eng.prog.cell_ids.index(cell_id)] = dev
    return dataclasses.replace(chip, deviations=d)


# --- config validation ---------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        PpvConfig(spread=0.0)
    with pytest.raises(ValueError):
        PpvConfig(q=1.5)
    with pytest.raises(ValueError):
        PpvConfig(distribution="cauchy")
    with pytest.raises(ValueError):
        PpvConfig(margins={"XOR": 0.1})
    with pytest.raises(ValueError):
        PpvConfig(n_chips=0)
    with pytest.raises(ValueError):
        PpvConfig(n_messages=0)
    with pytest.raises(ValueError, match="bogus"):
        PpvConfig.from_dict({"q": 0.2, "bogus": 1})
    with pytest.raises(ValueError, match="tie_break"):
        PpvConfig(tie_break="bogus")
    for bad in ({"q": "0.1"}, {"spread": None}, {"q": True}, {"margins": ["XOR"]},
                {"margins": margins(XOR="0.1")}, {"margins": margins(XOR=float("nan"))},
                {"margins": margins(XOR=float("inf"))},
                {"n_chips": True}, {"n_messages": 10.0}, {"master_seed": "7"},
                {"master_seed": -1}, {"count_detected_errors": "no"}, {"clock_faults": 1}):
        with pytest.raises(ValueError):
            PpvConfig(**bad)
        with pytest.raises(ValueError):
            PpvConfig.from_dict(bad)
    with pytest.raises(ValueError):
        PpvConfig.from_dict([("q", 0.1)])
    # a margin too large for a float raised OverflowError
    with pytest.raises(ValueError, match="margin of XOR must be finite"):
        PpvConfig(margins=margins(XOR=10**400))
    with pytest.raises(ValueError, match="margin of XOR must be finite"):
        PpvConfig.from_dict({"margins": margins(XOR=10**400)})
    # a margin for a kind that does not exist was kept and written out
    for extra in ("BOGUS", 1):
        with pytest.raises(ValueError, match=f"unknown cell kind '?{extra}"):
            PpvConfig(margins={**margins(), extra: 0.01})
        with pytest.raises(ValueError, match=f"unknown cell kind '{extra}'"):
            PpvConfig.from_dict({"margins": {**margins(), extra: 0.01}})
    # ints stay ints in float fields, so a written config reads back unchanged
    cfg = PpvConfig.from_dict({"spread": 1, "q": 0, "margins": margins(XOR=0)})
    assert cfg.to_dict()["spread"] == 1 and type(cfg.to_dict()["spread"]) is int


def test_config_margins_are_frozen():
    caller = margins()
    cfg = PpvConfig(margins=caller)
    with pytest.raises(TypeError):
        cfg.margins["XOR"] = -1.0
    caller["XOR"] = -1.0
    assert cfg.margins["XOR"] == 0.2
    # the frozen copy changes neither the record nor equality, replace or copies
    assert cfg.to_dict()["margins"] == margins() and type(cfg.to_dict()["margins"]) is dict
    assert cfg == PpvConfig(margins=margins())
    assert dataclasses.replace(cfg, q=cfg.q) == cfg
    assert dataclasses.replace(cfg, margins=margins(XOR=0.1)).margins["XOR"] == 0.1
    assert pickle.loads(pickle.dumps(cfg)) == cfg == copy.deepcopy(cfg)


def test_config_roundtrip():
    cfg = PpvConfig(q=0.25, master_seed=9, count_detected_errors=False)
    assert PpvConfig.from_dict(cfg.to_dict()) == cfg


def test_config_stores_numpy_numbers_as_python_numbers():
    # numpy scalars were stored as given, and json.dumps of to_dict raised TypeError
    cfg = PpvConfig(spread=np.float64(0.2), q=np.float32(0.1), master_seed=np.int64(7),
                    n_chips=np.int32(5), n_messages=np.uint16(3),
                    margins=margins(XOR=np.float16(0.25), DFF=np.int64(1)))
    assert type(cfg.q) is float and cfg.q == float(np.float32(0.1))
    assert type(cfg.spread) is float
    assert (type(cfg.master_seed), type(cfg.n_chips), type(cfg.n_messages)) == (int, int, int)
    assert (type(cfg.margins["XOR"]), type(cfg.margins["DFF"])) == (float, int)
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert doc == cfg.to_dict()
    assert PpvConfig.from_dict(doc) == cfg == PpvConfig.from_dict(cfg.to_dict())


JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats()
               | st.text(max_size=6) | st.sampled_from(["uniform", "gaussian", "optimistic"]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)
MARGIN_VALUES = st.floats(-0.5, 2) | JSON_LEAVES


@st.composite
def config_docs(draw):
    """A default config's record with fields dropped, changed and added, or any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    doc = PpvConfig().to_dict()
    for name in draw(st.lists(st.sampled_from(sorted(doc)), max_size=3, unique=True)):
        if draw(st.booleans()):
            del doc[name]
        elif name == "margins":
            doc[name] = draw(st.dictionaries(st.sampled_from([*nl.CELL_KINDS, "NAND", 1]),
                                             MARGIN_VALUES, max_size=5) | JSON_VALUES)
        else:
            doc[name] = draw(JSON_VALUES | st.floats(0, 1) | st.integers(-1, 2**32))
    if draw(st.integers(0, 3)) == 0:  # unknown keys, of mixed types
        doc.update(draw(st.dictionaries(st.text(max_size=6) | st.integers(), JSON_LEAVES,
                                        min_size=1, max_size=2)))
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=config_docs())
def test_config_from_dict_loads_or_raises_value_error(doc):
    try:
        cfg = PpvConfig.from_dict(doc)
    except ValueError:
        return
    assert PpvConfig.from_dict(cfg.to_dict()) == cfg


# --- baseline netlist ------------------------------------------------------------

def test_baseline_composition():
    net = no_encoder()
    counts = net.counts()
    assert counts == {"XOR": 0, "DFF": 0, "SPLITTER": 0, "SFQ2DC": 4,
                      "data_splitters": 0, "clock_splitters": 0}
    assert net.depth() == 0


# the digests perfbench's goldens pin: synthesis, the uncoded baseline and the
# netlist JSON all feed them
SETUP_HASHES = {
    "none": "97290ca316d90062726825cb3c0f97a1c1899a6016d88b60236e547f3c8675a7",
    "rm13": "c9ef965463a4ab8cc6948c2d36296480c32f9c4ad893df30ae94b6c16e73c54f",
    "hamming74": "c5151117342574682829524aa6dfc4aca4a15a3b6e3220c1f36a827d28ab94cd",
    "hamming84": "a462c13aa8c8aae879a95863eb10c5e11f99dfd6e5192af422867fde8ae58daa",
}


@pytest.mark.parametrize("name", SETUP_NAMES)
def test_setup_netlist_hashes_are_pinned(name):
    assert make_setup(name).netlist.content_hash() == SETUP_HASHES[name]


@pytest.mark.parametrize("name", ["baseline", "bogus"])
def test_unknown_setup_rejected(name):
    # "baseline" was an unused alias of "none"; the error named only the codes
    with pytest.raises(ValueError, match="expected one of none, rm13, hamming74, hamming84"):
        make_setup(name)


def test_baseline_identity_channel():
    setup = make_setup("none")
    cfg = no_fault_cfg(n_messages=30, n_chips=5)
    assert (error_counts(setup, cfg) == 0).all()


# --- chip sampling ----------------------------------------------------------------

def test_chip_sampling_deterministic():
    net = make_setup("hamming84").netlist
    cfg = PpvConfig()
    a = sample_chip(net, cfg, 17)
    b = sample_chip(net, cfg, 17)
    assert np.array_equal(a.deviations, b.deviations)
    assert np.array_equal(a.branch_sel, b.branch_sel)
    assert not np.array_equal(a.deviations, sample_chip(net, cfg, 18).deviations)


def drawn_rows(eng, cfg, margins, q, store, chips):
    """(cells, rows) per chip drawn when ``_received`` scores the ``chips`` of ``store``.

    ``cfg`` is scored at the (margins, q) points.  Observed through a spy on
    the batch's row function, which a batch calls once for all its chips;
    the rows are given as uniforms.  A chip with no drawn cells draws none.
    """
    dev, branch, msgs, draw = ppv._decode(eng, cfg, store, chips)
    seen = []

    def spy(chip, cell):
        words = draw(chip, cell)
        seen.append((chip, cell, words))
        return words

    ppv._received(eng, cfg, margins, q, (dev, branch, msgs, spy))
    ((chip, cell, words),) = seen
    return [(cell[chip == j], ppv._doubles(words[chip == j])) for j in range(len(chips))]


def received(net, chip, cfg, msgs):
    """Received words (M, n) of the (M, k) ``msgs`` on ``chip``, in one ``_received`` call.

    Every misfire word, so every uniform, is 0: a faulty cell misfires on
    every message when q > 0.  A chip with no cell that can misfire gets no
    engine row; its words are the fault-free netlist's, as scoring reads them.
    """
    eng = _FaultEngine(net)

    def zeros(chips, cells):
        return np.zeros((len(cells), len(msgs)), dtype=np.uint64)

    batch = (chip.deviations[None], chip.branch_sel[None], msgs[None], zeros)
    words, _, row = ppv._received(eng, cfg, *points(cfg), batch)
    if row[0, 0] < 0:
        words, row = evaluate(eng.prog, np.packbits(msgs.T[:, None], axis=-1)), [[0]]
    return np.unpackbits(words[:, row[0][0]], axis=-1, count=len(msgs)).T


def drawn_cells(eng, cfg, chips):
    """The cells the fault path reads under ``cfg`` per chip of the range ``chips``: those
    that draw misfire rows."""
    store = ppv._ChipStore(cfg, [eng], chips)
    return [cells for cells, _ in drawn_rows(eng, cfg, *points(cfg), store, chips)]


def test_no_faults_when_margin_equals_spread():
    eng = _FaultEngine(make_setup("hamming84").netlist)
    cfg = no_fault_cfg()
    for cells in drawn_cells(eng, cfg, range(10)):
        assert cells.size == 0


def test_uniform_faulty_fraction_at_half_margin():
    # P(|U(-0.2, 0.2)| > 0.1) = 0.5; aggregate over many chips x cells
    setup = make_setup("rm13")
    cfg = PpvConfig(margins={k: 0.1 for k in KINDS}, master_seed=123)
    eng = _FaultEngine(setup.netlist)
    faultable = np.array([k in cfg.margins for k in eng.prog.kinds])
    total = hits = 0
    # 2200 chips x 49 faultable cells > 1e5 draws
    for cells in drawn_cells(eng, cfg, range(2200)):
        hits += int(faultable[cells].sum())
        total += int(faultable.sum())
    assert total > 100_000
    assert hits / total == pytest.approx(0.5, abs=0.01)


def test_gaussian_deviations_stay_inside_spread():
    net = make_setup("hamming74").netlist
    cfg = PpvConfig(distribution="gaussian")
    for idx in range(50):
        chip = sample_chip(net, cfg, idx)
        assert (np.abs(chip.deviations) <= cfg.spread).all()


def test_inputs_and_clock_never_fault():
    setup = make_setup("hamming84")
    cfg = PpvConfig(margins={k: 0.0 for k in KINDS})
    eng = _FaultEngine(setup.netlist)
    (cells,) = drawn_cells(eng, cfg, range(3, 4))
    cells = cells.tolist()
    for cid in setup.netlist.inputs + [setup.netlist.clock]:
        assert eng.prog.cell_ids.index(cid) not in cells


# --- received words ---------------------------------------------------------------

def test_inject_without_faults_is_encode():
    setup = make_setup("hamming84")
    cfg = no_fault_cfg(q=1.0)
    chip = sample_chip(setup.netlist, cfg, 0)
    msgs = setup.code.messages
    assert np.array_equal(received(setup.netlist, chip, cfg, msgs), msgs @ setup.code.G % 2)


def test_faulty_converter_drops_carried_ones():
    setup = make_setup("hamming84")
    cfg = PpvConfig(margins=margins(), q=1.0)
    chip = chip_with_only(setup, cfg, "o3")
    msgs = setup.code.messages
    got, want = received(setup.netlist, chip, cfg, msgs), msgs @ setup.code.G % 2
    assert want[:, 3].any() and not got[:, 3].any()
    assert np.array_equal(np.delete(got, 3, axis=1), np.delete(want, 3, axis=1))


def test_faulty_cell_with_q_zero_behaves_clean():
    setup = make_setup("hamming84")
    cfg = PpvConfig(margins=margins(), q=0.0)
    chip = chip_with_only(setup, cfg, "x0")
    msgs = setup.code.messages
    assert np.array_equal(received(setup.netlist, chip, cfg, msgs), msgs @ setup.code.G % 2)


# --- trials -----------------------------------------------------------------------

def test_trial_fault_free_chip():
    for name in ("none", "hamming74", "hamming84", "rm13"):
        setup = make_setup(name)
        cfg = no_fault_cfg(n_messages=60)
        chip = sample_chip(setup.netlist, cfg, 4)
        assert run_trial(setup, chip, cfg) == 0


def test_single_dropping_converter_correctable_by_every_code():
    # deterministic correction-benefit check: one always-misfiring output
    # converter produces at most a single-bit error per message
    for name in ("hamming74", "hamming84", "rm13"):
        setup = make_setup(name)
        cfg = PpvConfig(margins=margins(), q=1.0, n_messages=100)
        chip = chip_with_only(setup, cfg, "o1")
        msgs = np.random.default_rng(11).integers(0, 2, (100, 4)).astype(np.uint8)
        wrong = 0
        for m, got in zip(msgs, received(setup.netlist, chip, cfg, msgs)):
            out = decode(setup.code, got, CORRECT)
            if out.message is None or not np.array_equal(out.message, m):
                wrong += 1
        assert wrong == 0, name


def test_single_dropping_converter_breaks_baseline():
    setup = make_setup("none")
    cfg = PpvConfig(margins=margins(), q=1.0, n_messages=100)
    chip = chip_with_only(setup, cfg, "o1")
    msgs = np.random.default_rng(11).integers(0, 2, (100 * 100, 4)).astype(np.uint8)
    got = received(setup.netlist, chip, cfg, msgs)
    trials = (got != msgs).any(axis=1).reshape(100, 100).sum(axis=1)
    assert all(n > 0 for n in trials)
    # the dropped line only matters when its sent bit is 1: E[N] = 50
    assert np.mean(trials) == pytest.approx(50, abs=3)


def test_run_trial_matches_batch_path():
    for name in ("none", "hamming84"):
        setup = make_setup(name)
        cfg = PpvConfig(n_chips=6, n_messages=40, q=0.4,
                        margins={k: 0.12 for k in KINDS}, master_seed=77)
        batch = error_counts(setup, cfg)
        for idx in range(cfg.n_chips):
            chip = sample_chip(setup.netlist, cfg, idx)
            assert run_trial(setup, chip, cfg) == batch[idx]


def test_run_trial_scores_the_chip_it_is_given():
    # the deviations of the chip count, not only its index
    setup = make_setup("hamming84")
    cfg = PpvConfig(margins={k: 0.05 for k in KINDS}, q=1.0, n_messages=40)
    chip = sample_chip(setup.netlist, cfg, 0)
    assert run_trial(setup, chip, cfg) > 0
    clean = dataclasses.replace(chip, deviations=np.zeros_like(chip.deviations))
    assert run_trial(setup, clean, cfg) == 0


def test_run_trial_on_one_dropping_converter_counts_each_message():
    cfg = PpvConfig(margins=margins(), q=1.0, n_messages=50, master_seed=7)
    for name in ppv.SETUP_NAMES:
        setup = make_setup(name)
        msgs = reference_material(_FaultEngine(setup.netlist), cfg, 0)[2]
        want = 0
        for m in msgs:  # o1 drops every carried 1
            word = encode(setup.code, m)
            word[1] = 0
            want += not np.array_equal(decode(setup.code, word, CORRECT).message, m)
        assert run_trial(setup, chip_with_only(setup, cfg, "o1"), cfg) == want, name
        # a code corrects the one flipped bit; uncoded, each message whose bit 1 is set is lost
        if name == "none":
            assert want == msgs[:, 1].sum() > 0
        else:
            assert want == 0, name


def test_chip_from_another_netlist_rejected():
    setup, cfg = make_setup("hamming84"), PpvConfig()
    other = sample_chip(make_setup("hamming74").netlist, cfg, 0)
    with pytest.raises(ValueError, match="another netlist"):
        run_trial(setup, other, cfg)


# --- monte carlo -------------------------------------------------------------------

def test_cdf_monotone_terminal_one():
    setup = make_setup("hamming74")
    cfg = PpvConfig(n_chips=80, n_messages=50, q=0.5,
                    margins={k: 0.1 for k in KINDS}, master_seed=3)
    series = monte_carlo(setup, cfg)
    assert (np.diff(series.cdf) >= 0).all()
    assert series.cdf[-1] == 1.0
    assert series.ns[0] == 0 and series.ns[-1] == cfg.n_messages


def test_no_faults_gives_step_at_zero():
    setup = make_setup("rm13")
    series = monte_carlo(setup, no_fault_cfg(n_chips=40, n_messages=30))
    assert series.zero_error_prob == 1.0
    assert (series.cdf == 1.0).all()


def test_monte_carlo_deterministic():
    setup = make_setup("hamming84")
    cfg = PpvConfig(n_chips=60, n_messages=40, q=0.3,
                    margins={k: 0.15 for k in KINDS}, master_seed=99)
    a = monte_carlo(setup, cfg)
    b = monte_carlo(setup, cfg)
    assert np.array_equal(a.cdf, b.cdf)
    assert a.to_csv() == b.to_csv()


def shipped_config() -> PpvConfig:
    doc = json.loads(resources.files("sfq_ecc").joinpath("data/ppv_calibrated.json").read_text())
    return PpvConfig.from_dict(doc["config"])


@settings(max_examples=25, deadline=None)
@given(codes=st.permutations(SETUP_NAMES).flatmap(
           lambda order: st.integers(1, 4).map(lambda n: order[:n])),
       n_chips=st.sampled_from([1, 250, 251, 257, 600]),
       variant=st.sampled_from([{}, {"distribution": "gaussian"}, {"clock_faults": False}]),
       n_messages=st.sampled_from([3, 100]),
       seed=st.integers(0, 2**31 - 1))
@example(codes=("hamming84", "none"), n_chips=257, variant={}, n_messages=100, seed=20240)
@example(codes=("hamming84", "none"), n_chips=251, variant={"distribution": "gaussian"},
         n_messages=100, seed=7)
def test_mc_writes_each_setups_counts_drawn_alone(codes, n_chips, variant, n_messages, seed):
    # mc draws each chip once into a store its setups share; no CDF may differ from its
    # setup's Monte Carlo drawn alone, whichever setups share the store, in whatever order
    cfg = dataclasses.replace(shipped_config(), n_chips=n_chips, n_messages=n_messages,
                              master_seed=seed, **variant)
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "ppv.json"
        path.write_text(json.dumps(cfg.to_dict()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["mc", "--config", str(path), "--codes", *codes, "--out", out]) == 0
        for name in codes:
            alone = monte_carlo(make_setup(name), cfg).to_csv()
            assert (Path(out) / f"cdf_{name}.csv").read_text() == alone


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["none", "rm13", "hamming74", "hamming84"]),
    knobs=st.lists(st.tuples(
        st.lists(st.floats(0.05, 0.2), min_size=4, max_size=4),
        st.floats(0.0, 1.0),
    ), min_size=1, max_size=4),
    det=st.booleans(),
    ties=st.sampled_from([TIE_CONSERVATIVE, TIE_OPTIMISTIC]),
    clock=st.booleans(),
    n_chips=st.integers(1, 13),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_many_configs_match_one_at_a_time(name, knobs, det, ties, clock, n_chips, batch,
                                          seed):
    # the points of one call share one config's accounting and clock model
    setup = make_setup(name)
    cfg = PpvConfig(count_detected_errors=det, tie_break=ties, clock_faults=clock,
                    n_chips=n_chips, n_messages=12, master_seed=seed)
    margins, q = random_points(knobs)
    with mock.patch.object(ppv, "_BATCH", batch):
        many = _error_counts_many(setup, cfg, margins, q)
    assert many.shape == (len(q), n_chips)
    for row, one in zip(many, at_points(cfg, margins, q)):
        assert np.array_equal(row, error_counts(setup, one))


def reference_material(eng, cfg, chip_index):
    """The draw order of a chip with its full (cells, n_messages) misfire block."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, chip_index)))
    if cfg.distribution == "uniform":
        dev = rng.uniform(-cfg.spread, cfg.spread, eng.n_cells)
    else:
        dev = rng.normal(0.0, cfg.spread / 2.0, eng.n_cells)
        while (np.abs(dev) > cfg.spread).any():
            bad = np.abs(dev) > cfg.spread
            dev[bad] = rng.normal(0.0, cfg.spread / 2.0, int(bad.sum()))
    branch = rng.integers(0, 2, eng.n_splitters)
    msgs = rng.integers(0, 2, (cfg.n_messages, len(eng.net.inputs)), dtype=np.uint8)
    return dev, branch, msgs, rng.random((eng.n_cells, cfg.n_messages))


def test_setups_cover_zero_odd_and_even_splitter_counts():
    # the decode property below needs a chip with no branch halves, an odd and an even count
    counts = [_FaultEngine(make_setup(name).netlist).n_splitters for name in ppv.SETUP_NAMES]
    assert 0 in counts and any(n % 2 for n in counts) and any(n and n % 2 == 0 for n in counts)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(ppv.SETUP_NAMES),
       distribution=st.sampled_from(["uniform", "gaussian"]),
       n_messages=st.sampled_from([1, 7, 8, 9, 65]),
       seed=st.integers(0, 2**31 - 1),
       first=st.integers(0, 10**6), count=st.integers(1, 4))
@example(name="rm13", distribution="uniform", n_messages=9, seed=0, first=0, count=1)
@example(name="none", distribution="uniform", n_messages=9, seed=0, first=254, count=4)
@example(name="hamming84", distribution="gaussian", n_messages=8, seed=2**31 - 1,
         first=2**31 - 4, count=4)
def test_decoded_batch_equals_generator_draws(name, distribution, n_messages, seed, first,
                                              count):
    # raw words of a store shared by every setup, decoded a batch at a time, against each
    # chip's Generator draws: deviations, integers(0, 2, S), integers(0, 2, (M, k), uint8)
    # and the whole misfire block
    eng = _FaultEngine(make_setup(name).netlist)
    cfg = PpvConfig(distribution=distribution, n_messages=n_messages, master_seed=seed)
    chips = range(first, first + count)
    store = ppv._ChipStore(cfg, [_FaultEngine(make_setup(n).netlist) for n in SETUP_NAMES],
                           chips)
    dev, branch, msgs, draw = ppv._decode(eng, cfg, store, chips)
    cells = np.arange(eng.n_cells)
    assert msgs.dtype == np.uint8
    for j, chip in enumerate(chips):
        ref_dev, ref_branch, ref_msgs, full = reference_material(eng, cfg, chip)
        assert np.array_equal(dev[j], ref_dev)
        assert np.array_equal(branch[j], ref_branch)
        assert np.array_equal(msgs[j], ref_msgs)
        assert np.array_equal(ppv._doubles(draw(np.full_like(cells, j), cells)), full)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       chips=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6))
@example(seed=0, chips=[0, 255, 256, 2**31 - 1])
@example(seed=2**31 - 1, chips=[0, 255, 256, 2**31 - 1])
def test_seed_words_equal_seed_sequence(seed, chips):
    # numpy's SeedSequence hashing, run over an array of chips at once
    words = ppv._seed_words(seed, np.array(chips))
    for row, chip in zip(words, chips):
        want = np.random.SeedSequence((seed, chip)).generate_state(4, np.uint64)
        assert row.dtype == want.dtype and np.array_equal(row, want)


@pytest.mark.parametrize("seed, chip", [(0, 0), (7, 255), (7, 256), (2**31 - 1, 999),
                                        (20240, 2**31 - 1)])
def test_chip_generator_is_its_seed_sequences(seed, chip):
    # PCG64 seeded with a row of the memo's words stands where PCG64(SeedSequence) does
    block, at = divmod(chip, ppv._SEED_BLOCK)
    bitgen = np.random.PCG64(ppv._seed_block(seed, block)[at])
    assert bitgen.state == np.random.PCG64(np.random.SeedSequence((seed, chip))).state


def test_seed_blocks_are_read_only():
    words = ppv._seed_block(7, 3)
    assert words.shape == (ppv._SEED_BLOCK, 4) and not words.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        words[0, 0] = 0
    assert ppv._seed_block(7, 3) is words


@pytest.mark.parametrize("a, b", [(7, 8), (0, 2**31 - 1), (20240, 2**31 - 1)])
def test_seeds_sharing_a_block_number_share_no_words(a, b):
    # the memo is keyed on the seed as well as the block
    for block in (0, 5):
        assert not np.intersect1d(ppv._seed_block(a, block), ppv._seed_block(b, block)).size


def test_seeds_beyond_one_word_are_rejected():
    # numpy pads entropy shorter than its pool with zero words, so chip 0 of seed 2**32 + 7,
    # the entropy words [7, 1, 0], would be chip 1 of seed 7, [7, 1]
    want = np.random.SeedSequence((7, 1)).generate_state(4, np.uint64)
    assert np.array_equal(np.random.SeedSequence((2**32 + 7, 0)).generate_state(4, np.uint64),
                          want)
    assert np.array_equal(ppv._seed_block(7, 0)[1], want)
    with pytest.raises(ValueError,
                       match="^master_seed must be at most 2147483647, got 4294967303$"):
        PpvConfig(master_seed=2**32 + 7)


@pytest.mark.parametrize("chip", [-1, 2**31, 1.0, True])
def test_chip_index_outside_the_chips_is_an_error(chip):
    setup, cfg = make_setup("none"), PpvConfig()
    with pytest.raises(ValueError, match="chip_index"):
        sample_chip(setup.netlist, cfg, chip)
    instance = dataclasses.replace(sample_chip(setup.netlist, cfg, 0), chip_index=chip)
    with pytest.raises(ValueError, match="chip_index"):
        run_trial(setup, instance, cfg)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(ppv.SETUP_NAMES),
       distribution=st.sampled_from(["uniform", "gaussian"]),
       margin=st.lists(st.lists(st.floats(0.0, 0.25), min_size=4, max_size=4),
                       min_size=1, max_size=3),
       n_messages=st.sampled_from([1, 7, 8, 9, 65]),
       seed=st.integers(0, 2**16),
       chip=st.integers(0, 10**6))
def test_sparse_misfire_rows_equal_full_block(name, distribution, margin, n_messages,
                                              seed, chip):
    # one to three points: the drawn cells are those beyond the weakest margin of each cell
    eng = _FaultEngine(make_setup(name).netlist)
    cfg = PpvConfig(distribution=distribution, n_messages=n_messages, master_seed=seed)
    dev, _, _, full = reference_material(eng, cfg, chip)
    q, chips = np.full(len(margin), cfg.q), range(chip, chip + 1)
    ((cells, drawn),) = drawn_rows(eng, cfg, np.array(margin), q,
                                   ppv._ChipStore(cfg, [eng], chips), chips)
    weakest = [min(m[KINDS.index(k)] for m in margin) if k in KINDS else np.inf
               for k in eng.prog.kinds]
    assert cells.tolist() == np.flatnonzero(np.abs(dev) > weakest).tolist()
    assert np.array_equal(drawn, full[cells])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(ppv.SETUP_NAMES),
       distribution=st.sampled_from(["uniform", "gaussian"]),
       n_messages=st.sampled_from([1, 7, 8, 9, 65]),
       seed=st.integers(0, 2**16),
       chip=st.integers(0, 10**6),
       data=st.data())
def test_kept_material_draws_any_rows_in_any_order(name, distribution, n_messages, seed,
                                                   chip, data):
    # one chip of a store kept for every setup, asked for cell subsets of the setups in turn,
    # then for rm13's last row and none's first: under uniform one generator serves all
    # four blocks by absolute position, so that is a backward move from one to the other
    cfg = PpvConfig(distribution=distribution, n_messages=n_messages, master_seed=seed)
    engs = {n: _FaultEngine(make_setup(n).netlist) for n in SETUP_NAMES}
    chips = range(chip, chip + 1)
    store = ppv._ChipStore(cfg, list(engs.values()), chips)
    full = {n: reference_material(e, cfg, chip)[3] for n, e in engs.items()}
    zero = dataclasses.replace(cfg, margins=dict.fromkeys(KINDS, 0.0))
    ((cells, drawn),) = drawn_rows(engs[name], zero, *points(zero), store, chips)
    assert np.array_equal(drawn, full[name][cells])
    draws = {n: ppv._decode(e, cfg, store, chips)[3] for n, e in engs.items()}
    asked = [(n, data.draw(st.lists(st.integers(0, engs[n].n_cells - 1), unique=True,
                                    max_size=engs[n].n_cells)))
             for n in data.draw(st.lists(st.sampled_from(SETUP_NAMES), min_size=1, max_size=4))]
    for n, subset in asked + [("rm13", [engs["rm13"].n_cells - 1]), ("none", [0])]:
        subset = np.array(subset, dtype=np.intp)
        words = draws[n](np.zeros_like(subset), subset)
        assert np.array_equal(ppv._doubles(words), full[n][subset])


def test_calibration_draws_each_chip_once(monkeypatch):
    # every candidate, round and stage re-drew the chips it scored
    drawn = []
    material = ppv._chip_material

    def counted(eng, cfg, chip_index):
        drawn.append((eng.net.name, cfg.master_seed, cfg.n_messages, chip_index))
        return material(eng, cfg, chip_index)

    monkeypatch.setattr(ppv, "_chip_material", counted)
    # under uniform one draw serves every setup; under gaussian each cell count has its head
    for distribution, draws_per_chip in (("uniform", 1), ("gaussian", len(ppv.SETUP_NAMES))):
        drawn.clear()
        calibrate_fault_model(base=PpvConfig(n_chips=12, n_messages=20,
                                             distribution=distribution),
                              search_chips=4, refine_chips=8)
        assert len(drawn) == len(set(drawn)) == draws_per_chip * 12


def unflipping_margin(setup, cfg, kind):
    """A margin for ``kind`` above ``cfg``'s with no chip's deviation in between."""
    eng = _FaultEngine(setup.netlist)
    of_kind = np.array([k == kind for k in eng.prog.kinds])
    devs = np.abs([sample_chip(setup.netlist, cfg, i).deviations[of_kind]
                   for i in range(cfg.n_chips)])
    above = devs[devs > cfg.margins[kind]]
    assert above.size
    return (cfg.margins[kind] + above.min()) / 2


def repeated_patterns(case):
    """A setup, configs that repeat misfire patterns, and the distinct ones among them."""
    common = {"n_chips": 9, "n_messages": 11, "master_seed": 31, "q": 0.5}
    if case == "absent kinds":
        setup = make_setup("none")  # converters only
        a = PpvConfig(margins=margins(SFQ2DC=0.1), **common)
        b = dataclasses.replace(a, margins=margins(XOR=0.0, DFF=0.05, SPLITTER=0.1, SFQ2DC=0.1))
        c = dataclasses.replace(a, q=0.9)
        return setup, [a, b, c], [a, c]
    setup = make_setup("rm13")
    a = PpvConfig(margins=margins(XOR=0.1, DFF=0.15, SPLITTER=0.12, SFQ2DC=0.1), **common)
    b = dataclasses.replace(a, q=0.2)
    if case == "duplicated":
        return setup, [a, b, a, a, b], [a, b]
    # the same q, and a converter margin that faults no other drawn cell
    c = dataclasses.replace(a, margins={**a.margins,
                                        "SFQ2DC": unflipping_margin(setup, a, "SFQ2DC")})
    return setup, [a, c, b], [a, b]


def counted_passes(monkeypatch) -> list:
    """A list that collects the row count of every later engine pass with misfires.

    A pass without misfire masks is the fault-free evaluation of every
    message, which scores the fault-free (point, chip) pairs.
    """
    passes = []
    evaluate = ppv.evaluate

    def counted(prog, planes, *args):
        if args:
            passes.append(planes.shape[1])
        return evaluate(prog, planes, *args)

    monkeypatch.setattr(ppv, "evaluate", counted)
    return passes


@pytest.mark.parametrize("batch", range(1, 8))
@pytest.mark.parametrize("case", ["duplicated", "unflipped margins", "absent kinds"])
def test_repeated_misfire_patterns_are_evaluated_once(case, batch, monkeypatch):
    setup, cfgs, distinct = repeated_patterns(case)
    monkeypatch.setattr(ppv, "_BATCH", batch)  # the distinct rows span several passes
    passes = counted_passes(monkeypatch)
    many = _error_counts_many(setup, cfgs[0], *points(*cfgs))
    evaluated, passes[:] = list(passes), []
    _error_counts_many(setup, distinct[0], *points(*distinct))
    assert sum(evaluated) == sum(passes) and len(evaluated) > 1
    assert many.any()
    for row, cfg in zip(many, cfgs):
        assert np.array_equal(row, error_counts(setup, cfg))
        assert row.tolist() == reference_counts(setup, cfg)


@pytest.mark.parametrize("name", SETUP_NAMES)
def test_engine_passes_hold_only_the_chips_with_a_faulty_cell(name, monkeypatch):
    # the Monte Carlo path: a lone config gives each chip with a faulty cell its own row and a
    # fault-free chip none, as it counts the fault-free netlist's wrong deliveries
    setup = make_setup(name)
    cfg = PpvConfig(margins=margins(XOR=0.19, DFF=0.2, SPLITTER=0.19, SFQ2DC=0.17),
                    n_chips=7, n_messages=11, master_seed=31, q=0.5)
    faulty = [cells.size > 0 for cells in
              drawn_cells(_FaultEngine(setup.netlist), cfg, range(cfg.n_chips))]
    assert 0 < sum(faulty) < cfg.n_chips
    monkeypatch.setattr(ppv, "_BATCH", 3)
    passes = counted_passes(monkeypatch)
    counts = error_counts(setup, cfg)
    in_batches = [sum(faulty[start:start + 3]) for start in range(0, cfg.n_chips, 3)]
    assert passes == [n for n in in_batches if n]
    assert counts.any() and counts.tolist() == reference_counts(setup, cfg)


def test_a_config_with_no_faulty_cell_makes_no_faulty_row_pass(monkeypatch):
    # every margin equal to the spread: no cell can fault, and no chip reaches the engine
    passes = counted_passes(monkeypatch)
    cfg = no_fault_cfg(n_chips=9, n_messages=13, master_seed=4)
    for name in SETUP_NAMES:
        setup = make_setup(name)
        assert error_counts(setup, cfg).tolist() == [0] * 9 == reference_counts(setup, cfg)
    assert passes == []


def reference_counts(setup, cfg):
    """Per-chip error counts by the unpacked algorithm, one message at a time.

    Draws each chip's full misfire block and walks the netlist's nets for
    every message, independent of the compiled program and the packed engine.
    """
    net = setup.netlist
    eng = _FaultEngine(net)
    ids = list(net.cells)
    kind = {cid: net.cells[cid].kind for cid in ids}
    driver = {(n.dst, n.dst_pin): (n.src, n.src_port) for n in net.nets}
    splitters = [cid for cid in ids if kind[cid] == nl.SPLITTER]
    counts = []
    for chip in range(cfg.n_chips):
        dev, branch, msgs, u = reference_material(eng, cfg, chip)
        faulty = [kind[cid] in KINDS and abs(dev[i]) > cfg.margins[kind[cid]]
                  for i, cid in enumerate(ids)]
        errors = 0
        for t, m in enumerate(msgs):
            fires = {cid for i, cid in enumerate(ids) if faulty[i] and u[i, t] < cfg.q}
            memo = {}

            def out(cid, port):
                if (cid, port) not in memo:
                    k = kind[cid]
                    if k == nl.INPUT:
                        v = int(m[net.inputs.index(cid)])
                    elif k == nl.CLOCK_INPUT:
                        v = 1
                    elif k == nl.XOR:
                        v = out(*driver[(cid, 0)]) ^ out(*driver[(cid, 1)]) ^ (cid in fires)
                    elif k == nl.SPLITTER:
                        dropped = cid in fires and branch[splitters.index(cid)] == port
                        v = 0 if dropped else out(*driver[(cid, 0)])
                    else:
                        v = 0 if cid in fires else out(*driver[(cid, 0)])
                    if cfg.clock_faults and (cid, "clk") in driver:
                        v &= out(*driver[(cid, "clk")])
                    memo[(cid, port)] = v
                return memo[(cid, port)]

            word = [out(o, 0) for o in net.outputs]
            got = decode(setup.code, word, CORRECT, cfg.tie_break).message
            if got is None:
                errors += cfg.count_detected_errors
            else:
                errors += not np.array_equal(got, m)
        counts.append(errors)
    return counts


def random_points(knobs):
    """The (margins, q) point arrays of (margins, q) knobs, margins in KINDS order."""
    return (np.array([m for m, _ in knobs], dtype=float),
            np.array([q for _, q in knobs], dtype=float))


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(ppv.SETUP_NAMES),
    knobs=st.lists(st.tuples(
        st.lists(st.floats(0.1, 0.2), min_size=4, max_size=4),
        st.floats(0.0, 1.0),
    ), min_size=1, max_size=4),
    det=st.booleans(),
    ties=st.sampled_from([TIE_CONSERVATIVE, TIE_OPTIMISTIC]),
    clock=st.booleans(),
    distribution=st.sampled_from(["uniform", "gaussian"]),
    n_chips=st.integers(1, 9),
    n_messages=st.integers(1, 19),
    batch=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_error_counts_match_reference_evaluator(name, knobs, det, ties, clock, distribution,
                                                n_chips, n_messages, batch, seed):
    # the points of one call share one config's accounting and clock model
    setup = make_setup(name)
    cfg = PpvConfig(count_detected_errors=det, tie_break=ties, clock_faults=clock,
                    distribution=distribution, n_chips=n_chips, n_messages=n_messages,
                    master_seed=seed)
    margins, q = random_points(knobs)
    with mock.patch.object(ppv, "_BATCH", batch):
        many = _error_counts_many(setup, cfg, margins, q)
    for row, one in zip(many, at_points(cfg, margins, q)):
        assert row.tolist() == reference_counts(setup, one)


def test_error_counts_match_reference_beyond_one_pass():
    # 12 points x 26 chips = 312 rows: more than one 250-row engine pass,
    # once under each accounting and clock model
    rng = np.random.default_rng(4)
    knobs = [(rng.uniform(0.12, 0.2, 4), float(rng.uniform())) for _ in range(12)]
    margins, q = random_points(knobs)
    setup = make_setup("rm13")
    for det, ties, clock in ((True, TIE_CONSERVATIVE, True), (False, TIE_OPTIMISTIC, False),
                             (True, TIE_OPTIMISTIC, False), (False, TIE_CONSERVATIVE, True)):
        cfg = PpvConfig(count_detected_errors=det, tie_break=ties, clock_faults=clock,
                        n_chips=26, n_messages=9, master_seed=5)
        many = _error_counts_many(setup, cfg, margins, q)
        for row, one in zip(many, at_points(cfg, margins, q)):
            assert row.tolist() == reference_counts(setup, one)
        assert many.sum() > 0


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(ppv.SETUP_NAMES),
    near_spread=st.lists(st.floats(0.196, 0.2), min_size=4, max_size=4),
    q=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    det=st.booleans(),
    ties=st.sampled_from([TIE_CONSERVATIVE, TIE_OPTIMISTIC]),
    clock=st.booleans(),
    distribution=st.sampled_from(["uniform", "gaussian"]),
    permuted=st.booleans(),
    n_chips=st.integers(1, 10),
    n_messages=st.integers(1, 17),
    seed=st.integers(0, 2**16),
)
def test_mostly_fault_free_chips_match_reference_evaluator(
        name, near_spread, q, det, ties, clock, distribution, permuted, n_chips, n_messages,
        seed):
    # margins near the spread leave most chips fault-free, scored without the engine; a
    # netlist with its outputs reversed delivers some messages wrong even fault-free
    setup = make_setup(name)
    if permuted:
        net = copy.deepcopy(setup.netlist)
        net.outputs = list(net.outputs)[::-1]
        setup = EncoderSetup(setup.name, net, setup.code)
    cfg = PpvConfig(margins=dict(zip(KINDS, near_spread)), q=q, count_detected_errors=det,
                    tie_break=ties, clock_faults=clock, distribution=distribution,
                    n_chips=n_chips, n_messages=n_messages, master_seed=seed)
    with mock.patch.object(ppv, "_BATCH", 3):  # batches split
        assert error_counts(setup, cfg).tolist() == reference_counts(setup, cfg)


EDGE_Q = st.sampled_from([0.0, 1.0, 5e-324, 2.0**-53, 1 - 2.0**-53])


@st.composite
def q_near_a_double(draw):
    """``q`` equal to a double ``top / 2**53`` of ``Generator.random``, or one ulp either side.

    Kept in [0, 1], the range of a config's ``q``.
    """
    q = draw(st.integers(0, 2**53)) * 2.0**-53
    return float(np.clip(np.nextafter(q, draw(st.sampled_from([-1.0, q, 2.0]))), 0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(words=arrays(np.uint64, st.integers(0, 40), elements=st.integers(0, 2**64 - 1)),
       q=EDGE_Q | q_near_a_double() | st.floats(0.0, 1.0))
def test_integer_threshold_equals_uniform_below_q(words, q):
    # every word whose top 53 bits stand at, just below or just above q's own bits
    top = int(np.ceil(q * 2.0**53))
    edges = [(t << 11) | low for t in (top - 1, top, top + 1) if 0 <= t < 2**53
             for low in (0, 2**11 - 1)]
    words = np.concatenate([words, np.array(edges, dtype=np.uint64)])
    assert np.array_equal(ppv._below(words, q), ppv._doubles(words) < q)


def test_calibration_matches_one_config_at_a_time(monkeypatch):
    base = PpvConfig(n_chips=40, n_messages=30)
    shared = calibrate_fault_model(base=base, search_chips=10, refine_chips=20)
    many = ppv._error_counts_many

    def one_at_a_time(setup, cfg, margins, q, chips=None):
        # what error_counts computes, one point per call on chips drawn afresh
        return np.stack([many(setup, cfg, margins[i:i + 1], q[i:i + 1])[0]
                         for i in range(len(q))])

    monkeypatch.setattr(ppv, "_error_counts_many", one_at_a_time)
    assert calibrate_fault_model(base=base, search_chips=10, refine_chips=20) == shared


@pytest.mark.parametrize("stage", ppv._STAGES, ids=[stage[0] for stage in ppv._STAGES])
def test_neighbours_of_the_origin_are_the_stage_grid(stage):
    # the grid a stage ranks: every product of its factors times spread, q fastest
    _, _, axes, q_grid, _, _ = stage
    origin = PpvConfig(margins=dict.fromkeys(KINDS, 0.0), q=1.0)
    margins, q = ppv._neighbours(origin, [(kinds, factors) for kinds, factors, _ in axes],
                                 q_grid)
    want = []
    for move in product(*(factors for _, factors, _ in axes)):
        factor = {k: f for (kinds, _, _), f in zip(axes, move) for k in kinds}
        want += [([factor[k] * origin.spread for k in KINDS], qf) for qf in q_grid]
    assert margins.tolist() == [m for m, _ in want]
    assert q.tolist() == [qf for _, qf in want]


ORDERED = dict(zip(ppv.SETUP_NAMES, (0.8, 0.867, 0.898, 0.927)))
FLAT = dict.fromkeys(ppv.SETUP_NAMES, 0.8)
REVERSED = dict(zip(ppv.SETUP_NAMES, (0.95, 0.9, 0.85, 0.8)))


@pytest.mark.parametrize("targets, base, search, refine, rounds, expected", [
    # both stages run; the split stage wins
    (ORDERED, {"n_chips": 40, "n_messages": 30}, 10, 20, 2, (
        {"spread": 0.2, "distribution": "uniform",
         "margins": {"XOR": 0.1862, "DFF": 0.2, "SPLITTER": 0.19916000000000003,
                     "SFQ2DC": 0.18794},
         "q": 0.13999999999999999, "master_seed": 20240, "n_chips": 40, "n_messages": 30,
         "count_detected_errors": False, "tie_break": "optimistic", "clock_faults": True},
        {"none": 0.875, "rm13": 0.85, "hamming74": 0.9, "hamming84": 0.975},
        0.07499999999999996, False, False, "split")),
    # the shared stage wins after polishing, without converging
    (ORDERED, {"n_chips": 40, "distribution": "gaussian", "master_seed": 5}, 20, 30, 2, (
        {"spread": 0.2, "distribution": "gaussian",
         "margins": {"XOR": 0.187, "DFF": 0.187, "SPLITTER": 0.187, "SFQ2DC": 0.187},
         "q": 0.005, "master_seed": 5, "n_chips": 40, "n_messages": 100,
         "count_detected_errors": True, "tie_break": "conservative", "clock_faults": True},
        {"none": 0.975, "rm13": 0.875, "hamming74": 0.875, "hamming84": 0.9},
        0.17499999999999993, False, False, "shared")),
    # unordered targets: no ordering is required
    (FLAT, {"n_chips": 40}, 20, 30, 1, (
        {"spread": 0.2, "distribution": "uniform",
         "margins": {"XOR": 0.1868, "DFF": 0.2, "SPLITTER": 0.19924000000000003,
                     "SFQ2DC": 0.18520000000000003},
         "q": 0.5, "master_seed": 20240, "n_chips": 40, "n_messages": 100,
         "count_detected_errors": False, "tie_break": "optimistic", "clock_faults": True},
        {"none": 0.825, "rm13": 0.75, "hamming74": 0.75, "hamming84": 0.9},
        0.09999999999999998, False, False, "split")),
    (REVERSED, {"n_chips": 40, "spread": 0.1}, 20, 30, 3, (
        {"spread": 0.1, "distribution": "uniform",
         "margins": dict.fromkeys(KINDS, 0.09816666666666668),
         "q": 0.008749999999999999, "master_seed": 20240, "n_chips": 40, "n_messages": 100,
         "count_detected_errors": True, "tie_break": "conservative", "clock_faults": True},
        {"none": 1.0, "rm13": 0.875, "hamming74": 0.9, "hamming84": 0.875},
        0.07499999999999996, False, False, "shared")),
], ids=["ordered", "gaussian", "flat", "reversed"])
def test_calibration_output_is_pinned(targets, base, search, refine, rounds, expected):
    # every float to the last bit: the search's moves and ranking are exact
    res = calibrate_fault_model(targets, base=PpvConfig(**base), search_chips=search,
                                refine_chips=refine, refine_rounds=rounds)
    assert (res.config.to_dict(), res.achieved, res.max_abs_dev, res.ordering_ok,
            res.converged, res.stage) == expected
    assert list(res.config.margins) == list(KINDS)


def test_calibration_scores_no_more_chips_than_the_final_rescore(monkeypatch):
    # a 6-chip calibration polished every candidate at the default 500 chips
    many = ppv._error_counts_many

    def capped(setup, cfg, margins, q, chips=None):
        assert cfg.n_chips <= 6
        return many(setup, cfg, margins, q, chips)

    monkeypatch.setattr(ppv, "_error_counts_many", capped)
    calibrate_fault_model(base=PpvConfig(n_chips=6, n_messages=20), search_chips=20)


@pytest.mark.parametrize("count", [0, 2.5, True, "20"])
@pytest.mark.parametrize("which", ["search_chips", "refine_chips"])
def test_calibration_rejects_bad_chip_counts(which, count):
    with pytest.raises(ValueError, match=which):
        calibrate_fault_model(base=PpvConfig(n_chips=4),
                              **{"search_chips": 2, "refine_chips": 2, which: count})


def test_calibration_rejects_a_base_that_is_not_a_config():
    # a dict raised TypeError from dataclasses.replace
    with pytest.raises(ValueError, match="base must be a PpvConfig"):
        calibrate_fault_model(base={"n_chips": 4}, search_chips=2, refine_chips=2)


@pytest.mark.parametrize("rounds", [-1, 1.5, True, "2"])
def test_calibration_rejects_bad_refine_rounds(rounds):
    # a negative count skipped every polish step and reported non-convergence
    with pytest.raises(ValueError, match="refine_rounds"):
        calibrate_fault_model(base=PpvConfig(n_chips=4), search_chips=2,
                              refine_chips=2, refine_rounds=rounds)


@pytest.mark.parametrize("targets, key", [
    ({"none": 0.8}, "rm13"),
    ({**ppv.CALIBRATION_TARGETS, "bogus": 0.5}, "bogus"),
    ({**ppv.CALIBRATION_TARGETS, "rm13": "0.8"}, "rm13"),
    ({**ppv.CALIBRATION_TARGETS, "hamming74": True}, "hamming74"),
    ({**ppv.CALIBRATION_TARGETS, "hamming84": float("nan")}, "hamming84"),
    ({**ppv.CALIBRATION_TARGETS, "none": 1.2}, "none"),
    ([0.8, 0.867, 0.898, 0.927], "targets must map"),
])
def test_calibration_rejects_bad_targets(targets, key):
    # a missing or extra key raised KeyError, a string TypeError
    with pytest.raises(ValueError, match=key):
        calibrate_fault_model(targets, base=PpvConfig(n_chips=4), search_chips=2,
                              refine_chips=2)


def test_shipped_calibration_holds_across_seeds():
    # the claim of the shipped config is not a property of its own seed alone
    doc = json.loads(resources.files("sfq_ecc").joinpath("data/ppv_calibrated.json")
                     .read_text())
    cfg, targets = shipped_config(), doc["targets"]
    for seed in range(1, 6):
        run = dataclasses.replace(cfg, master_seed=seed)
        probs = {name: float((error_counts(make_setup(name), run) == 0).mean())
                 for name in ppv.SETUP_NAMES}
        assert probs["none"] < probs["rm13"] < probs["hamming74"] < probs["hamming84"], \
            (seed, probs)
        assert max(abs(probs[k] - targets[k]) for k in targets) <= 0.05, (seed, probs)


def test_batch_size_does_not_change_results(monkeypatch):
    setup = make_setup("rm13")
    cfg = PpvConfig(n_chips=50, n_messages=30, q=0.3,
                    margins={k: 0.15 for k in KINDS}, master_seed=8)
    monkeypatch.setattr(ppv, "_BATCH", 7)
    small = error_counts(setup, cfg)
    monkeypatch.setattr(ppv, "_BATCH", 50)
    assert np.array_equal(small, error_counts(setup, cfg))


def test_monotone_degradation_in_q():
    setup = make_setup("hamming84")
    lows, highs = [], []
    for seed in range(6):
        for q, bucket in ((0.05, lows), (0.6, highs)):
            cfg = PpvConfig(n_chips=120, n_messages=50, q=q,
                            margins={k: 0.16 for k in KINDS}, master_seed=seed)
            bucket.append(monte_carlo(setup, cfg).zero_error_prob)
    assert np.mean(highs) < np.mean(lows)


def test_monotone_degradation_in_margin():
    setup = make_setup("hamming74")
    loose, tight = [], []
    for seed in range(6):
        for rho, bucket in ((0.18, loose), (0.10, tight)):
            cfg = PpvConfig(n_chips=120, n_messages=50, q=0.3,
                            margins={k: rho for k in KINDS}, master_seed=seed)
            bucket.append(monte_carlo(setup, cfg).zero_error_prob)
    assert np.mean(tight) < np.mean(loose)


def test_csv_shape():
    series = CdfSeries(ns=np.arange(3), cdf=np.array([0.5, 0.75, 1.0]), n_chips=4)
    assert series.to_csv() == "n,cdf\n0,0.5\n1,0.75\n2,1\n"


# --- decoding in the Monte Carlo -----------------------------------------------------

def test_decode_table_follows_the_generator():
    # same name, rows permuted: the built-in table would deliver the wrong
    # message index for every word
    builtin = make_code("hamming74")
    permuted = LinearCode("hamming74", builtin.G[[1, 0, 3, 2]])
    cfg = no_fault_cfg(n_chips=3, n_messages=40)
    for code in (builtin, permuted):
        setup = EncoderSetup(code.name, synthesize(code), code)
        assert (error_counts(setup, cfg) == 0).all()


# --- engine per netlist ----------------------------------------------------------------

def test_mutated_netlist_gets_fresh_engine():
    setup = make_setup("hamming84")
    net = setup.netlist
    error_counts(setup, PpvConfig(n_chips=2, n_messages=5))
    net.outputs = list(net.outputs)[::-1]
    cfg = no_fault_cfg(n_chips=1)
    chip = sample_chip(net, cfg, 0)
    reversed_code = LinearCode(setup.code.name, setup.code.G[:, ::-1])
    assert run_trial(EncoderSetup(setup.name, net, reversed_code), chip, cfg) == 0
    assert run_trial(setup, chip, cfg) > 0


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(ppv.SETUP_NAMES),
       msgs=arrays(np.uint8, st.tuples(st.integers(0, 30), st.just(4)),
                   elements=st.integers(0, 1)),
       q=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_engine_matches_cycle_simulator_fault_free(name, msgs, q, seed):
    # every deviation inside its margin: misfire draws and branches are inert,
    # so the engine encodes like the generator matrix (the identity uncoded)
    setup = make_setup(name)
    eng = _FaultEngine(setup.netlist)
    rng = np.random.default_rng(seed)
    cfg = PpvConfig(margins=margins(), q=q, n_messages=max(1, len(msgs)))
    dev = rng.uniform(-0.2, 0.2, eng.n_cells)
    branch = rng.integers(0, 2, (1, eng.n_splitters))
    fires = (rng.random((eng.n_cells, len(msgs))) < q) & (
        np.abs(dev) > [cfg.margins.get(k, np.inf) for k in eng.prog.kinds])[:, None]
    mis = np.packbits(fires[:, None, :], axis=-1)
    packed = np.packbits(msgs.T[:, None, :], axis=-1)
    received = evaluate(eng.prog, packed, mis, branch)
    got = np.unpackbits(received, axis=-1, count=len(msgs))[:, 0, :].T
    assert np.array_equal(got, (msgs @ setup.code.G) % 2)


def clock_subtree(net, splitter, branch):
    """Clocked cells whose clock pulse passes ``branch`` of ``splitter``."""
    below, todo = set(), [(splitter, branch)]
    while todo:
        src, port = todo.pop()
        for n in net.nets:
            if (n.src, n.src_port) != (src, port):
                continue
            if net.cells[n.dst].kind == nl.SPLITTER:
                todo += [(n.dst, 0), (n.dst, 1)]
            else:
                assert n.dst_pin == "clk"
                below.add(n.dst)
    return below


def silenced_encoding(net, msgs, silenced):
    """Fault-free evaluation (M, n) of (M, k) ``msgs`` with ``silenced`` cells emitting 0."""
    driver = {(n.dst, n.dst_pin): n.src for n in net.nets if n.dst_pin != "clk"}

    def value(cid):
        kind = net.cells[cid].kind
        if cid in silenced:
            return np.zeros(len(msgs), dtype=msgs.dtype)
        if kind == nl.INPUT:
            return msgs[:, net.inputs.index(cid)]
        if kind == nl.XOR:
            return value(driver[(cid, 0)]) ^ value(driver[(cid, 1)])
        return value(driver[(cid, 0)])

    return np.stack([value(o) for o in net.outputs], axis=1)


def test_dropping_clock_splitter_silences_its_subtree():
    # every clock splitter of every encoder, dropping either branch, on all messages
    cfg = PpvConfig(margins=margins(), q=1.0)
    quiet = dataclasses.replace(cfg, clock_faults=False)
    for name in ("rm13", "hamming74", "hamming84"):
        setup = make_setup(name)
        net, msgs = setup.netlist, setup.code.messages
        splitters = [c.id for c in net.cells.values() if c.kind == nl.SPLITTER]
        clean = silenced_encoding(net, msgs, set())
        for spl in (c.id for c in net.cells.values() if c.role == "clock"):
            for branch in (0, 1):
                silenced = clock_subtree(net, spl, branch)
                assert silenced
                sel = np.zeros(len(splitters), dtype=np.int64)
                sel[splitters.index(spl)] = branch
                chip = dataclasses.replace(chip_with_only(setup, cfg, spl), branch_sel=sel)
                got = received(net, chip, cfg, msgs)
                assert np.array_equal(got, silenced_encoding(net, msgs, silenced)), (spl, branch)
                # without clock faults the same chip encodes cleanly
                assert np.array_equal(received(net, chip, quiet, msgs), clean)
