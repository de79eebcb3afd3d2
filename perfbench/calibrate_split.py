"""Where one calibration spends its ``error_counts`` time, at a given scale.

    PYTHONPATH=src python3 perfbench/calibrate_split.py SEARCH/REFINE/FINAL [SEED]

Runs ``calibrate_fault_model`` once, with timers around the private
``ppv._chip_material`` (chip RNG), ``_FaultEngine.run`` and
``_count_errors``, and prints their shares of the time inside
``error_counts``.  The ``calibrate`` workload's chip counts were chosen with
it: they keep the split of a full-scale calibration.
"""

import sys
import time

from sfq_ecc import codes, ppv

spent = {"chip material": 0.0, "engine run": 0.0, "count errors": 0.0, "error_counts": 0.0}
calls = {"error_counts": 0, "chips": 0}


def timed(key, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[key] += time.perf_counter() - t0
    return wrapper


def main():
    search, refine, final = map(int, sys.argv[1].split("/"))
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20240
    inner = ppv.error_counts

    def counted(setup, cfg, *args, **kwargs):
        calls["error_counts"] += 1
        calls["chips"] += cfg.n_chips
        return inner(setup, cfg, *args, **kwargs)

    for name in ppv.SETUP_NAMES:  # decode tables, outside the measurement
        for ties, count_det in ((codes.TIE_CONSERVATIVE, True), (codes.TIE_OPTIMISTIC, False)):
            inner(ppv.make_setup(name), ppv.PpvConfig(n_chips=1, tie_break=ties,
                                                      count_detected_errors=count_det))
    ppv._chip_material = timed("chip material", ppv._chip_material)
    ppv._FaultEngine.run = timed("engine run", ppv._FaultEngine.run)
    ppv._count_errors = timed("count errors", ppv._count_errors)
    ppv.error_counts = timed("error_counts", counted)
    t0 = time.perf_counter()
    ppv.calibrate_fault_model(base=ppv.PpvConfig(master_seed=seed, n_chips=final),
                              search_chips=search, refine_chips=refine, refine_rounds=2)
    total = time.perf_counter() - t0
    inside = spent["error_counts"]
    rest = inside - spent["chip material"] - spent["engine run"] - spent["count errors"]
    print(f"{sys.argv[1]} seed {seed}: {total:.2f} s, {inside / total:.0%} in error_counts; "
          f"{calls['error_counts']} calls, {calls['chips'] / calls['error_counts']:.1f} chips/call")
    for key in ("chip material", "engine run", "count errors"):
        print(f"  {key:<16}{spent[key] / inside:6.0%}")
    print(f"  {'rest of call':<16}{rest / inside:6.0%}")


if __name__ == "__main__":
    main()
