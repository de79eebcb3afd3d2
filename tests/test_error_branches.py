"""Error branches no other test reaches: each raises its documented error and message.

Where a command reaches the branch, the command exits with its documented code and
prints the same message.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from sfq_ecc import celllib
from sfq_ecc.celllib import (
    TABLE_TOTALS,
    CalibrationError,
    LibraryParseError,
    calibrate_library,
    fit_unit_costs,
    read_library,
)
from sfq_ecc.cli import EXIT_VALIDATION, main
from sfq_ecc.codes import CORRECT, analyze_patterns, make_code
from sfq_ecc.netlist import CELL_KINDS
from sfq_ecc.ppv import PpvConfig, _ChipStore, _FaultEngine, error_counts, make_setup

JJ_ROWS = [t[:5] for t in TABLE_TOTALS.values()]
POWER_ROWS = [t[:4] + (t[5],) for t in TABLE_TOTALS.values()]
SHIPPED_LIBRARY = (Path(celllib.__file__).parent / "data" / "cell_library.cfg").read_text()


def library_file(tmp_path, first_line):
    """The shipped library with ``first_line`` put before it."""
    path = tmp_path / "cells.cfg"
    path.write_text(f"{first_line}\n{SHIPPED_LIBRARY}")
    return path


def config_file(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


NEGATIVE_MARGIN = {"margins": {**dict.fromkeys(CELL_KINDS, 0.1), "XOR": -0.1}}
# the least seed beyond the count rule
BIG_SEED = {"master_seed": 2**31}
BIG_SEED_MESSAGE = "master_seed must be at most 2147483647, got 2147483648"

STORE = PpvConfig(n_chips=4, n_messages=10, master_seed=7)
GAUSSIAN_STORE = PpvConfig(n_chips=4, n_messages=10, master_seed=7, distribution="gaussian")


def from_store(name, cfg=STORE, held=("none",), store=STORE):
    """``error_counts`` of setup ``name`` under ``cfg``, from a chip store of ``store``'s
    chips drawn for the setups ``held``."""
    chips = _ChipStore(store, [_FaultEngine(make_setup(h).netlist) for h in held])
    return error_counts(make_setup(name), cfg, chips)


# (id, the call, the error it raises, its message, the command reaching it or None);
# the call and the command take a temporary directory
BRANCHES = [
    ("library unknown key",
     lambda tmp: read_library(library_file(tmp, "XOR.bogus = 1")),
     LibraryParseError, "cells.cfg:1: unknown key 'XOR.bogus'",
     lambda tmp: ["synth", "hamming74", "--library", str(library_file(tmp, "XOR.bogus = 1"))]),
    ("library bad number",
     lambda tmp: read_library(library_file(tmp, "XOR.jj = eleven")),
     LibraryParseError, "cells.cfg:1: bad number 'eleven'",
     lambda tmp: ["synth", "hamming74", "--library", str(library_file(tmp, "XOR.jj = eleven"))]),
    ("jj calibration with two rows",
     lambda tmp: calibrate_library(JJ_ROWS[:2]),
     CalibrationError, "need at least three encoder rows", None),
    # two more junctions in the first total leave no non-negative integral solution
    ("jj calibration with no solution",
     lambda tmp: calibrate_library([JJ_ROWS[0][:4] + (249,)] + JJ_ROWS[1:]),
     CalibrationError, "0 admissible solutions; residuals by splitter value: ", None),
    # the first row again, with a total 1 uW higher
    ("unit costs inconsistent",
     lambda tmp: fit_unit_costs(POWER_ROWS + [POWER_ROWS[0][:4] + (POWER_ROWS[0][4] + 1,)]),
     CalibrationError, "power totals are inconsistent, no exact solution", None),
    # XOR + DFF = -1 and the null direction trades one for the other
    ("unit costs negative",
     lambda tmp: fit_unit_costs([(1, 1, 0, 0, -1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1)]),
     CalibrationError, "no non-negative power solution", None),
    ("negative margin",
     lambda tmp: PpvConfig.from_dict(NEGATIVE_MARGIN),
     ValueError, "margin of XOR must be non-negative, got -0.1",
     lambda tmp: ["mc", "--config", str(config_file(tmp, NEGATIVE_MARGIN))]),
    ("master seed in a config beyond the count rule",
     lambda tmp: PpvConfig.from_dict(BIG_SEED),
     ValueError, BIG_SEED_MESSAGE,
     lambda tmp: ["mc", "--config", str(config_file(tmp, BIG_SEED))]),
    ("calibration seed beyond the count rule",
     lambda tmp: PpvConfig(**BIG_SEED),
     ValueError, BIG_SEED_MESSAGE,
     lambda tmp: ["calibrate", "--seed", str(2**31)]),
    ("chip store of another seed",
     lambda tmp: from_store("none", PpvConfig(n_chips=4, n_messages=10, master_seed=8)),
     ValueError, "the chip store holds the chips of master_seed 7, not 8", None),
    ("chip store of another spread",
     lambda tmp: from_store("none", PpvConfig(n_chips=4, n_messages=10, master_seed=7,
                                              spread=0.1)),
     ValueError, "the chip store holds the chips of spread 0.2, not 0.1", None),
    ("chip store of another distribution",
     lambda tmp: from_store("none", GAUSSIAN_STORE),
     ValueError, "the chip store holds the chips of distribution 'uniform', not 'gaussian'",
     None),
    ("chip store of another message count",
     lambda tmp: from_store("none", PpvConfig(n_chips=4, n_messages=11, master_seed=7)),
     ValueError, "the chip store holds the chips of n_messages 10, not 11", None),
    ("chip store of fewer chips",
     lambda tmp: from_store("none", PpvConfig(n_chips=5, n_messages=10, master_seed=7)),
     ValueError, "the chip store holds chips 0 to 3, not 0 to 4", None),
    # none's head at 10 messages, 13 words, is shorter than rm13's 72
    ("chip store without the head of a longer setup",
     lambda tmp: from_store("rm13"),
     ValueError, "the chip store holds no head for the netlist 'rm13_encoder'", None),
    # under gaussian a head serves one cell count: rm13's 54 cells, not none's 8
    ("gaussian chip store without a setup's cell count",
     lambda tmp: from_store("none", GAUSSIAN_STORE, ("rm13",), GAUSSIAN_STORE),
     ValueError, "the chip store holds no head for the netlist 'no_encoder'", None),
    ("base word not a codeword",
     lambda tmp: analyze_patterns(make_code("hamming74"), CORRECT, 1, base_codeword="1000000"),
     ValueError, "base_codeword is not a codeword", None),
    # equal to a valid mode, so the mode check passes, but no dict key: the lookup's
    # own error is raised again
    ("decode mode equal to a valid one but unhashable",
     lambda tmp: make_code("hamming74").decode_table(np.array(CORRECT)),
     TypeError, "unhashable type: 'numpy.ndarray'", None),
]


@pytest.mark.parametrize("call, error, message, command", [b[1:] for b in BRANCHES],
                         ids=[b[0] for b in BRANCHES])
def test_error_branch(tmp_path, capsys, call, error, message, command):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
    if command is not None:
        assert main([*command(tmp_path), "--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
