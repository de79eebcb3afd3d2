"""Benchmark of the sfq-ecc pipeline: three workloads, timed or traced.

    python3 perfbench/run.py --workload {mc,calibrate,design} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory.  With ``--trace 0`` the run measures the
end-to-end metrics: the set-up time of fresh processes, then a closed loop
of operations for ``--seconds`` (and at least the workload's ``min_ops``).
With ``--trace 1`` it runs the traced pass instead and reports per-layer
metrics.  Every operation's output is checked.  A report goes to standard
output, ending with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the full result, with provenance, is written under
``.perfbench_out/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one thread: no BLAS or OpenMP worker pools.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MAX_RUN_S = 150  # stop starting operations after this, whatever min_ops says


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_process(workload: str, workdir: Path):
    """A function that runs one fresh process that imports and sets up, and
    returns its wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(workdir)]

    def once() -> float:
        # no timeout: with one, the wait polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    return once


class Loop:
    """Closed-loop operations with their checks; failures are counted."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.summaries: list = []

    def op(self, seed: int, index: int, before_check=None):
        """Run and check one operation; returns its wall time or None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run(seed)
        except Exception as e:  # an operation that raises is a failed operation
            self.failed += 1
            self.problems.append(f"op {index} seed {seed}: raised {e!r}")
            return None
        took = time.perf_counter() - t0
        if before_check is not None:
            before_check()
        try:
            bad = self.wl.check(seed, out, index)
        except Exception as e:  # so is one whose output cannot be checked
            bad = [f"check raised {e!r}"]
        if bad:
            self.failed += 1
            self.problems.extend(f"op {index} seed {seed}: {p}" for p in bad)
        self.summaries.append(self.wl.summary(out))
        return took


def tail(durations: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(durations)
    if n < 11:
        return None
    return sorted(durations)[n - 11], round(100.0 * (n - 10) / n)


def timed_run(wl, seeds, seconds: float, workdir: Path) -> dict:
    fresh_setup = setup_process(wl.name, workdir)
    fresh_setup()  # warm-up, not counted: it may compile bytecode
    setups: list = []
    wl.setup()
    loop = Loop(wl)
    durations: list = []
    rss: list = []
    start = time.perf_counter()
    i = 0

    def time_left() -> bool:
        """Another operation of median length still ends within ``seconds``."""
        typical = statistics.median(durations) if durations else 0.0
        return time.perf_counter() - start + typical <= seconds

    while (i < wl.min_ops or time_left()) and time.perf_counter() - start < MAX_RUN_S:
        # fresh-process set-ups spread over the run, so they sample its whole
        # span of host speed and not only its first seconds
        while (len(setups) < SETUP_REPEATS
               and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(fresh_setup())
        # peak RSS after a fixed operation count, so run length cannot move it
        took = loop.op(next(seeds), i, (lambda: rss.append(peak_rss_mb()))
                       if i + 1 == wl.min_ops else None)
        if took is not None:
            durations.append(took)
        i += 1
    if not durations:
        raise SystemExit(f"perfbench: no operation completed: {loop.problems[:3]}")
    while len(setups) < SETUP_REPEATS:
        setups.append(fresh_setup())
    if not rss:
        loop.failed += 1
        loop.problems.append(f"fewer than {wl.min_ops} operations in {MAX_RUN_S} s")
        rss.append(peak_rss_mb())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s_p50": (statistics.median(durations), "s"),
        "peak_rss_mb": (rss[0], "MB"),
    }
    extra = {"fail_rate": (loop.failed / loop.attempted, "ratio")}
    t = tail(durations)
    if t is not None:
        extra["run_s_tail"] = (t[0], "s", f"p{t[1]} of {len(durations)} ops")
    extra.update(wl.throughputs(loop.summaries, durations))
    return {"loop": loop, "metrics": metrics, "extra": extra,
            "samples": {"setup_s": setups, "run_s": durations}}


def traced_run(wl, seeds, seconds: float, workdir: Path) -> dict:
    import tracing
    from workloads import shipped_library

    start = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.install()
    namespaces = tracer.patched_namespaces()
    tracer.op = "setup"
    wl.setup()
    tracer.op = None
    loop = Loop(wl)
    traced, plain = [], []

    def pair(i: int, op_id):
        """The same operation untraced and traced, alternating which is first."""
        seed = next(seeds)
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                tracer.install()
                tracer.op = op_id
            took = loop.op(seed, i, lambda: setattr(tracer, "op", None))
            tracer.op = None
            if traced_now:
                tracer.uninstall()
            if took is not None:
                (traced if traced_now else plain).append(took)

    tracer.uninstall()
    for i in range(wl.traced_ops):
        pair(i, i)
    library = shipped_library()
    tracer.install()
    tracer.op = "probe"
    tracing.layer_probe(workdir, library)
    tracer.op = None
    tracer.uninstall()
    counted = len(tracer.spans)
    i = wl.traced_ops
    while time.perf_counter() - start < seconds and time.perf_counter() - start < MAX_RUN_S:
        pair(i, "overhead")
        tracer.draws.pop("overhead", None)  # not counted; would only take memory
        i += 1
    if not traced or not plain:
        raise SystemExit(f"perfbench: no operation completed: {loop.problems[:3]}")
    metrics, from_probe = tracing.layer_metrics(tracer.spans[:counted], tracer.draws,
                                                wl.traced_ops)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    extra = {"traced_run_s_p50": (statistics.median(traced), "s"),
             "untraced_run_s_p50": (statistics.median(plain), "s"),
             "fail_rate": (loop.failed / loop.attempted, "ratio")}
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{wl.name}.json"
    spans_file.write_text(json.dumps(tracer.dump()))
    return {"loop": loop, "metrics": metrics, "extra": extra,
            "samples": {"traced_run_s": traced, "untraced_run_s": plain},
            "trace": {"patched": namespaces, "from_probe": from_probe,
                      "spans": len(tracer.spans), "counted_spans": counted,
                      "spans_file": str(spans_file.relative_to(ROOT))}}


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import sfq_ecc

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "sfq_ecc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "sfq_ecc": sfq_ecc.__version__,
            "workload": workload, "seed": seed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("mc", "calibrate", "design"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "sfq_ecc" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'sfq_ecc'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sfq_ecc
    if Path(sfq_ecc.__file__).resolve().parent != (SRC / "sfq_ecc").resolve():
        print(f"perfbench: imported sfq_ecc from {sfq_ecc.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, op_seeds

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](workdir)
        seeds = op_seeds(args.workload, args.seed)
        run = (traced_run if args.trace else timed_run)(wl, seeds, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loop = run["loop"]
    prov = provenance(args.workload, args.seed)
    print(" ".join(f"{k}={v}" for k, v in prov.items()))
    for name, (value, unit, *note) in {**run["metrics"], **run["extra"]}.items():
        print(f"{name:<44}{value:>16.6g} {unit:<6}{' '.join(note)}")
    print(f"operations: {loop.attempted} attempted, {loop.failed} failed")
    for problem in loop.problems[:20]:
        print(f"  FAIL {problem}")
    if "trace" in run:
        print(f"from the layer probe: {', '.join(run['trace']['from_probe']) or 'none'}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in run["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "provenance": prov, "problems": loop.problems,
         "extra": {k: {"value": v[0], "unit": v[1], "note": " ".join(v[2:])}
                   for k, v in run["extra"].items()},
         "samples": run["samples"], "trace": run.get("trace")}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
