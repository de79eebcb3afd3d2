"""The shared argument rules, through one entry point or more of each module."""

import re

import numpy as np
import pytest

from sfq_ecc.celllib import CellKindCost, CellLibrary
from sfq_ecc.codes import CORRECT, analyze_patterns, make_code
from sfq_ecc.netlist import CELL_KINDS
from sfq_ecc.ppv import PpvConfig, no_encoder
from sfq_ecc.sim import simulate, to_timeline

NAN, INF = float("nan"), float("inf")
# per rule, the values it rejects and the numpy scalar types that stand for Python numbers:
# a bool is not a number, 10**400 is beyond the float range, "1" is text; a numpy float
# narrower than float64 is checked without an overflow warning
NUMBER = ((True, np.bool_(True), NAN, INF, -INF, 10**400, "1", np.float32(INF), np.float16(NAN)),
          (np.int64, np.float16, np.float32, np.float64))
# 10**400 is an integer; only a range at the call site rejects it
INTEGER = ((True, np.bool_(True), NAN, INF, -INF, "1", 1.5, np.float64(2)), (np.int64,))
CAPPED_INTEGER = (INTEGER[0] + (10**400,), INTEGER[1])
# counts no array can hold, which numpy rejected without naming the argument
COUNT = (CAPPED_INTEGER[0] + (2**31, 10**21, 10**30), INTEGER[1])


def sim(**kw):
    return simulate(no_encoder(), np.ones((2, 4), dtype=np.uint8), **kw).outputs.tolist()


def timeline(**kw):
    return to_timeline(simulate(no_encoder(), np.ones((2, 4), dtype=np.uint8)),
                       **{"clock_ghz": 5.0, **kw})


def library(**kw):
    return CellLibrary({k: CellKindCost(**{"jj": 11, "power_uW": 1.0, "area_mm2": 1.0,
                                           **(kw if k == "XOR" else {})})
                        for k in CELL_KINDS})


def margins(xor):
    return PpvConfig(margins={**dict.fromkeys(CELL_KINDS, 0.1), "XOR": xor})


# (argument the error names, a call setting it, a valid integral value, its rule)
RULES = [
    ("spread", lambda v: PpvConfig(spread=v), 1, NUMBER),
    ("q", lambda v: PpvConfig(q=v), 1, NUMBER),
    ("margin of XOR", margins, 0, NUMBER),
    ("n_chips", lambda v: PpvConfig(n_chips=v), 10, COUNT),
    ("n_messages", lambda v: PpvConfig(n_messages=v), 10, COUNT),
    ("master_seed", lambda v: PpvConfig(master_seed=v), 7, COUNT),
    ("cycles", lambda v: sim(cycles=v), 3, COUNT),
    ("clock_ghz", lambda v: timeline(clock_ghz=v), 5, NUMBER),
    ("epoch_ns", lambda v: timeline(epoch_ns=v), 0, NUMBER),
    ("weight", lambda v: analyze_patterns(make_code("hamming74"), CORRECT, v), 2,
     CAPPED_INTEGER),
    ("jj for XOR", lambda v: library(jj=v), 11, NUMBER),
    ("power_uW for XOR", lambda v: library(power_uW=v), 1, NUMBER),
]


@pytest.mark.parametrize("name, call, good, rule", RULES, ids=[r[0] for r in RULES])
def test_shared_rules_accept_numpy_scalars_and_name_the_bad_argument(name, call, good, rule):
    rejected, numpy_types = rule
    want = call(good)
    for numpy_type in numpy_types:
        assert call(numpy_type(good)) == want
    for v in rejected:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
            call(v)
