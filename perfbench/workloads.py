"""The three benchmark workloads: lazy setup, one operation, output checks.

Each workload is a closed loop with one caller.  An operation takes an
integer seed and nothing else; ``run`` is the timed part and ``check`` (not
timed) returns a list of problems, empty when the output is correct.  The
program under test is imported from the checkout's ``src`` directory by the
caller (``run.py`` or ``setup_child.py``) before this module is imported.

Every call into the program goes through a module attribute
(``codes.decode``, ``sim.simulate`` ...), so the traced pass, which replaces
those attributes with recording wrappers, sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from sfq_ecc import celllib, cli, codes, ppv, sim, synth

GOLDENS_FILE = Path(__file__).resolve().parent / "goldens.json"

# Operation 0 of every run uses this seed, whose outputs have golden digests.
DEFAULT_SEED = 20240

# Reduced calibration scale: search / refine / final chip counts, a tenth of
# the defaults (250 / 500 / 1000).  Chip material is 60 % of the error_counts
# time here, against 69 % at full scale and 35 % at 5 / 10 / 20.
CAL_SEARCH, CAL_REFINE, CAL_FINAL = 25, 50, 100

# README capability table and reference cost figures.
CAPABILITY_ROWS = {
    "hamming74": {"d_min": 3, "worst_detect": 1, "worst_correct": 1,
                  "best_detect": 3, "best_correct": 1},
    "hamming84": {"d_min": 4, "worst_detect": 3, "worst_correct": 1,
                  "best_detect": 3, "best_correct": 1},
    "rm13": {"d_min": 4, "worst_detect": 3, "worst_correct": 1,
             "best_detect": 3, "best_correct": 2},
}
COSTS = {  # XOR, DFF, splitters, converters, JJ, power uW, area mm2
    "rm13": (8, 7, 26, 8, 305, 101.5, 0.193),
    "hamming74": (5, 8, 20, 7, 247, 81.7, 0.158),
    "hamming84": (6, 8, 23, 8, 278, 92.3, 0.177),
}
STREAM_MESSAGES = 10_000
RANDOM_WORDS = 1000   # random received words decoded per code
FLIP_WORDS = 1000     # codeword + one flip, decoded per code
CLOCK_GHZ = 5.0


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def op_seeds(workload: str, seed: int):
    """Operation seeds of one run: the golden seed, then seed-derived ones."""
    yield DEFAULT_SEED
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


@functools.cache
def goldens() -> dict:
    """Digests taken from the seed commit by ``make_goldens.py``."""
    return json.loads(GOLDENS_FILE.read_text())


def shipped_library() -> celllib.CellLibrary:
    return celllib.read_library(Path(codes.__file__).parent / "data" / "cell_library.cfg")


def shipped_ppv_config() -> ppv.PpvConfig:
    doc = json.loads((Path(ppv.__file__).parent / "data" / "ppv_calibrated.json").read_text())
    return ppv.PpvConfig.from_dict(doc["config"])


class Workload:
    """``min_ops``: operations every timed run makes; peak RSS is read after
    this many.  ``traced_ops``: operations in the traced pass's counted part.
    """

    name: str
    min_ops: int
    traced_ops: int

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def summary(self, out) -> dict:
        """The few numbers of one output that ``throughputs`` needs."""
        return {}

    def throughputs(self, summaries: list, durations: list) -> dict:
        """Workload-specific throughput metrics: name -> (value, unit)."""
        return {}


class Mc(Workload):
    """``sfq-ecc mc``: 4 configurations x 1000 chips x 100 messages."""

    name = "mc"
    min_ops = 10
    traced_ops = 6

    def __init__(self, workdir: Path):
        super().__init__(workdir)
        self.out = workdir / "mc"
        self.cfg = shipped_ppv_config()

    def setup(self):
        """Decode tables, built by a one-chip, one-message run."""
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["mc", "--chips", "1", "--messages", "1",
                           "--out", str(self.out)])
        if rc != 0:
            raise RuntimeError(f"mc setup exited {rc}")

    def run(self, seed: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["mc", "--seed", str(seed), "--out", str(self.out)])

    def throughputs(self, summaries, durations) -> dict:
        chips = len(ppv.SETUP_NAMES) * self.cfg.n_chips * len(durations)
        return {"mc_chips_per_s": (chips / sum(durations), "1/s")}

    def check(self, seed: int, rc, index: int) -> list:
        if rc != 0:
            return [f"mc exited {rc}"]
        problems = []
        cfg = replace(self.cfg, master_seed=seed)
        files = {f"cdf_{n}.csv": (self.out / f"cdf_{n}.csv").read_bytes()
                 for n in ppv.SETUP_NAMES}
        files["mc_manifest.json"] = (self.out / "mc_manifest.json").read_bytes()
        manifest = json.loads(files["mc_manifest.json"])
        if manifest["config"] != cfg.to_dict() or manifest["seed"] != seed:
            problems.append("manifest config/seed differ from the request")
        cdfs = {}
        for name in ppv.SETUP_NAMES:
            lines = files[f"cdf_{name}.csv"].decode().splitlines()
            rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
            ns = [int(r[0]) for r in rows]
            cdf = np.array([r[1] for r in rows])
            cdfs[name] = cdf
            scaled = cdf * cfg.n_chips
            if (lines[0] != "n,cdf" or ns != list(range(cfg.n_messages + 1))
                    or np.any(np.diff(cdf) < 0) or cdf[-1] != 1.0
                    or np.abs(scaled - np.round(scaled)).max() > 1e-6):
                problems.append(f"{name}: CDF not a monotone chip fraction ending at 1")
            run = manifest["runs"][name]
            if run["netlist_hash"] != goldens()["netlist_hash"][name]:
                problems.append(f"{name}: netlist hash changed")
            if run["zero_error_prob"] != cdf[0]:
                problems.append(f"{name}: manifest P(0) != CDF[0]")
        gold = goldens()["mc"].get(str(seed))
        if gold is not None:
            got = {f: digest(b) for f, b in files.items()}
            if got != gold:
                bad = sorted(f for f in got if got[f] != gold.get(f))
                problems.append(f"golden digests differ: {bad}")
        # One configuration per operation, in turn: re-score every chip in one
        # batch and a sample of chips one at a time.
        name = ppv.SETUP_NAMES[index % len(ppv.SETUP_NAMES)]
        setup = ppv.make_setup(name)
        counts = ppv.error_counts(setup, cfg)
        ns = np.arange(cfg.n_messages + 1)
        again = np.searchsorted(np.sort(counts), ns, side="right") / cfg.n_chips
        if np.abs(again - cdfs[name]).max() > 1e-9:
            problems.append(f"{name}: re-scored CDF differs")
        for chip in random.Random(seed).sample(range(cfg.n_chips), 8):
            one = ppv.run_trial(setup, ppv.sample_chip(setup.netlist, cfg, chip), cfg)
            if one != counts[chip]:
                problems.append(f"{name}: chip {chip} run_trial {one} != batch {counts[chip]}")
        return problems


class Calibrate(Workload):
    """``calibrate_fault_model`` with default targets and grids, fewer chips."""

    name = "calibrate"
    min_ops = 4
    traced_ops = 1

    def setup(self):
        """Decode tables for both tie policies the two stages use."""
        for name in ppv.SETUP_NAMES:
            s = ppv.make_setup(name)
            for ties, count_det in ((codes.TIE_CONSERVATIVE, True),
                                    (codes.TIE_OPTIMISTIC, False)):
                ppv.error_counts(s, ppv.PpvConfig(n_chips=1, tie_break=ties,
                                                  count_detected_errors=count_det))

    def run(self, seed: int):
        base = ppv.PpvConfig(master_seed=seed, n_chips=CAL_FINAL)
        return ppv.calibrate_fault_model(base=base, search_chips=CAL_SEARCH,
                                         refine_chips=CAL_REFINE, refine_rounds=2)

    def check(self, seed: int, res, index: int) -> list:
        problems = []
        cfg = res.config
        if (res.targets != ppv.CALIBRATION_TARGETS or cfg.master_seed != seed
                or cfg.n_chips != CAL_FINAL):
            problems.append("result does not echo the request")
        for name in ppv.SETUP_NAMES:
            p = float((ppv.error_counts(ppv.make_setup(name), cfg) == 0).mean())
            if p != res.achieved[name]:
                problems.append(f"{name}: re-scored {p} != achieved {res.achieved[name]}")
        dev = max(abs(res.achieved[n] - res.targets[n]) for n in ppv.SETUP_NAMES)
        vals = [res.achieved[n] for n in ppv.SETUP_NAMES]
        ordered = all(a < b for a, b in zip(vals, vals[1:]))
        if (abs(dev - res.max_abs_dev) > 1e-12 or ordered != res.ordering_ok
                or res.converged != (dev <= 0.05 and ordered)):
            problems.append("max_abs_dev / ordering_ok / converged inconsistent")
        gold = goldens()["calibrate"].get(str(seed))
        if gold is not None and digest({"config": cfg.to_dict(),
                                        "achieved": res.achieved}) != gold:
            problems.append("golden calibration digest differs")
        return problems


class Design(Workload):
    """Codes, synthesis, pricing, equivalence, stream simulation, decoding."""

    name = "design"
    min_ops = 4
    traced_ops = 3

    def setup(self):
        """Library file and each code's lazy decoder state."""
        self.library = shipped_library()
        for name in codes.CODE_NAMES:
            code = codes.make_code(name)
            codes.decode(code, code.codebook[0])

    def run(self, seed: int):
        rng = np.random.default_rng(seed)
        out = {}
        for name in codes.CODE_NAMES:
            code = codes.make_code(name)
            row = codes.capability_summary(code).table_row()
            net = synth.synthesize(code)
            report = celllib.cost_report(net, self.library)
            equivalent = sim.verify_equivalence(net, code)[0]
            msgs = rng.integers(0, 2, (STREAM_MESSAGES, code.k), dtype=np.uint8)
            frames = sim.message_frames(net, msgs)
            t0 = time.perf_counter()
            result = sim.simulate(net, frames)
            sim_s = time.perf_counter() - t0
            timeline = sim.to_timeline(result, CLOCK_GHZ)
            words = rng.integers(0, 2, (RANDOM_WORDS, code.n), dtype=np.uint8)
            sent = msgs[:FLIP_WORDS]
            flipped = (sent @ code.G) % 2
            flipped[np.arange(FLIP_WORDS), rng.integers(0, code.n, FLIP_WORDS)] ^= 1
            t0 = time.perf_counter()
            decoded = [codes.decode(code, w) for w in words]
            repaired = [codes.decode(code, w) for w in flipped]
            dec_s = time.perf_counter() - t0
            out[name] = {
                "code": code, "row": row, "report": report,
                "hash": net.content_hash(), "equivalent": equivalent,
                "msgs": msgs, "result": result,
                "timeline": (len(timeline), timeline[-1][0]),
                "words": words, "decoded": decoded,
                "sent": sent, "repaired": repaired,
                "sim_s": sim_s, "dec_s": dec_s,
            }
        return out

    def summary(self, out) -> dict:
        return {"cycles": sum(len(r["result"].outputs) for r in out.values()),
                "decodes": sum(len(r["decoded"]) + len(r["repaired"]) for r in out.values()),
                "sim_s": sum(r["sim_s"] for r in out.values()),
                "dec_s": sum(r["dec_s"] for r in out.values())}

    def throughputs(self, summaries, durations) -> dict:
        total = {k: sum(s[k] for s in summaries) for k in summaries[0]}
        return {"sim_cycles_per_s": (total["cycles"] / total["sim_s"], "1/s"),
                "decodes_per_s": (total["decodes"] / total["dec_s"], "1/s")}

    def check(self, seed: int, out, index: int) -> list:
        problems = []
        for name, r in out.items():
            code = r["code"]
            row = {k: v for k, v in r["row"].items() if k != "code"}
            if row != CAPABILITY_ROWS[name]:
                problems.append(f"{name}: capability row {row}")
            rep = r["report"]
            got = (rep.counts["XOR"], rep.counts["DFF"], rep.counts["SPLITTER"],
                   rep.counts["SFQ2DC"], rep.jj_total, round(rep.power_total_uW, 1),
                   round(rep.area_total_mm2, 3))
            if got != COSTS[name]:
                problems.append(f"{name}: cost {got} != {COSTS[name]}")
            if r["hash"] != goldens()["netlist_hash"][name]:
                problems.append(f"{name}: netlist hash changed")
            if not r["equivalent"]:
                problems.append(f"{name}: netlist not equivalent to G")
            res = r["result"]
            lat = res.latency
            frames = np.array(res.outputs)
            want = (r["msgs"] @ code.G) % 2
            if (lat != 2 or frames.shape != (STREAM_MESSAGES + lat, code.n)
                    or frames[:lat].any() or not np.array_equal(frames[lat:], want)):
                problems.append(f"{name}: stream differs from (msgs @ G) % 2")
            n_rows, last_t = r["timeline"]
            if n_rows != frames.size or abs(last_t - (len(frames) - 1) / CLOCK_GHZ) > 1e-9:
                problems.append(f"{name}: timeline shape")
            ref = nearest_codewords(name)
            weights = 1 << np.arange(code.n - 1, -1, -1)
            for w, d in zip(r["words"] @ weights, r["decoded"]):
                want_idx = ref[int(w)]
                got_idx = None if d.message is None else code.message_of(
                    (d.message @ code.G) % 2)
                if got_idx != want_idx:
                    problems.append(f"{name}: word {int(w)} decoded to {got_idx}, "
                                    f"nearest is {want_idx}")
                    break
            for m, d in zip(r["sent"], r["repaired"]):
                if d.status != codes.CORRECTED or not np.array_equal(d.message, m):
                    problems.append(f"{name}: one flip of {codes.bitstr(m)} not repaired")
                    break
        return problems


@functools.cache
def nearest_codewords(name: str) -> list:
    """Per received word: index of the unique nearest codeword, None on a tie."""
    code = codes.make_code(name)
    words = np.array([[(w >> (code.n - 1 - i)) & 1 for i in range(code.n)]
                      for w in range(2**code.n)], dtype=np.uint8)
    dist = (words[:, None, :] != code.codebook[None, :, :]).sum(axis=2)
    hits = [np.flatnonzero(row == row.min()) for row in dist]
    return [int(h[0]) if h.size == 1 else None for h in hits]


WORKLOADS = {w.name: w for w in (Mc, Calibrate, Design)}
