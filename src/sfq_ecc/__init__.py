"""Short block-code encoders for superconducting (SFQ) output links.

The package covers the full path from code definition to reliability
statistics:

* :mod:`sfq_ecc.codes` -- Hamming(7,4), extended Hamming(8,4) and first-order
  Reed-Muller RM(1,3) codes: encoding, several decoding modes, and exhaustive
  error-pattern bookkeeping.
* :mod:`sfq_ecc.synth` -- gate-level encoder netlists built from XOR/DFF/
  splitter/converter cells under SFQ rules (every gate clocked, fan-out one,
  balanced paths).
* :mod:`sfq_ecc.celllib` -- per-cell-kind junction/power/area figures and
  netlist cost reports, including calibration from reference circuit totals.
* :mod:`sfq_ecc.sim` -- cycle-accurate simulation of synthesized netlists.
* :mod:`sfq_ecc.ppv` -- Monte Carlo fault injection under process-parameter
  variation, producing erroneous-message CDFs per chip instance.
* :mod:`sfq_ecc.cli` -- ``sfq-ecc`` command-line front end.
"""

from sfq_ecc.codes import (
    CODE_NAMES,
    DecodeOutcome,
    LinearCode,
    PatternAnalysis,
    analyze_patterns,
    bits,
    bitstr,
    boolean_forms,
    capability_summary,
    decode,
    encode,
    make_code,
)
from sfq_ecc.netlist import Netlist, StructuralError
from sfq_ecc.synth import synthesize
from sfq_ecc.sim import latency, simulate, to_timeline, verify_equivalence
from sfq_ecc.celllib import CellLibrary, calibrate_library, cost_report
from sfq_ecc.ppv import PpvConfig, monte_carlo, no_encoder

__version__ = "0.1.0"

__all__ = [
    "CODE_NAMES",
    "CellLibrary",
    "DecodeOutcome",
    "LinearCode",
    "Netlist",
    "PatternAnalysis",
    "PpvConfig",
    "StructuralError",
    "analyze_patterns",
    "bits",
    "bitstr",
    "boolean_forms",
    "calibrate_library",
    "capability_summary",
    "cost_report",
    "decode",
    "encode",
    "latency",
    "make_code",
    "monte_carlo",
    "no_encoder",
    "simulate",
    "synthesize",
    "to_timeline",
    "verify_equivalence",
]
