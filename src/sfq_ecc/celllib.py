"""Cell-library pricing: junction counts, static power, layout area.

Per-cell-kind figures live in a flat key-value config (``XOR.jj = 11`` ...).
Junction counts can be calibrated exactly from reference per-encoder totals:
three encoder rows give three equations in four unknowns, and requiring a
non-negative integer solution pins it uniquely (verified by exhaustive
search over the splitter variable).  Power and area totals underdetermine
the per-cell values, so those are fitted as the least-norm non-negative
exact solution and shipped as editable defaults rather than truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sfq_ecc import _checks
from sfq_ecc.netlist import CELL_KINDS, Netlist


class CalibrationError(RuntimeError):
    """No admissible per-cell solution for the given totals."""


class LibraryParseError(ValueError):
    """Config file rejected; the message carries file/line context."""


@dataclass(frozen=True)
class CellKindCost:
    jj: int
    power_uW: float
    area_mm2: float


@dataclass(frozen=True)
class CellLibrary:
    """Per-kind costs for the four priced cell kinds.

    Each cost is a positive finite real number, not a bool (the number rule
    of :mod:`sfq_ecc._checks`), so every bad value, even an integer too
    large for a float, raises ``ValueError`` naming the cost and its kind.
    """

    kinds: dict

    def __post_init__(self):
        kinds = dict(_checks.exact_keys("library", self.kinds, CELL_KINDS, "cell kind"))
        for kind in CELL_KINDS:
            c = kinds[kind]
            if not isinstance(c, CellKindCost):
                raise ValueError(f"costs for {kind} must be a CellKindCost, got {c!r}")
            for name, v in (("jj", c.jj), ("power_uW", c.power_uW), ("area_mm2", c.area_mm2)):
                if not _checks.number(f"{name} for {kind}", v) > 0:
                    raise ValueError(f"{name} for {kind} must be positive, got {v!r}")
            if not float(c.jj).is_integer():
                raise ValueError(f"jj count for {kind} must be integral: {c.jj}")
            kinds[kind] = replace(c, jj=int(c.jj))
        object.__setattr__(self, "kinds", kinds)

    def __getitem__(self, kind: str) -> CellKindCost:
        return self.kinds[kind]


@dataclass(frozen=True)
class CostReport:
    counts: dict
    data_splitters: int
    clock_splitters: int
    jj_total: int
    power_total_uW: float
    area_total_mm2: float


def cost_report(net: Netlist, library: CellLibrary) -> CostReport:
    """Price a netlist: totals are sums of per-kind count times unit cost."""
    counts = net.counts()
    jj = sum(counts[k] * library[k].jj for k in CELL_KINDS)
    power = sum(counts[k] * library[k].power_uW for k in CELL_KINDS)
    area = sum(counts[k] * library[k].area_mm2 for k in CELL_KINDS)
    return CostReport(
        counts={k: counts[k] for k in CELL_KINDS},
        data_splitters=counts["data_splitters"],
        clock_splitters=counts["clock_splitters"],
        jj_total=int(jj),
        power_total_uW=float(power),
        area_total_mm2=float(area),
    )


# Reference circuit totals used for calibration: per encoder,
# (xor, dff, splitters, converters, jj_total, power_uW, area_mm2).
TABLE_TOTALS = {
    "hamming74": (5, 8, 20, 7, 247, 81.7, 0.158),
    "hamming84": (6, 8, 23, 8, 278, 92.3, 0.177),
    "rm13": (8, 7, 26, 8, 305, 101.5, 0.193),
}


def _encoder_rows(rows, total: str, integers: bool) -> list:
    """``rows`` as a list, each a tuple, list or array of five finite numbers.

    With ``integers`` the numbers must be integral too.  Anything else
    raises ValueError naming the row (and, for a row of the wrong shape,
    its ``total`` column).
    """
    rows = list(rows)
    for r in rows:
        if not isinstance(r, (tuple, list, np.ndarray)) or len(r) != 5:
            raise ValueError(f"an encoder row is five numbers (xor, dff, splitter, converter, "
                             f"{total}_total), got {r!r}")
        for v in r:
            _checks.number(f"a value of encoder row {r!r}", v)
            if integers and not float(v).is_integer():
                raise ValueError(f"a value of encoder row {r!r} must be an integer, got {v!r}")
    return rows


def calibrate_library(rows=None):
    """Solve per-kind junction counts from three encoder JJ totals.

    ``rows`` holds (xor, dff, splitter, converter, jj_total) rows of
    integers; defaults to the reference encoder totals.  For each candidate
    splitter value the remaining 3x3 integer system is solved exactly; the unique
    non-negative integral solution is returned as ``{kind: jj}``.  Raises
    :class:`CalibrationError` with diagnostic residuals when no (or more
    than one) admissible solution exists.
    """
    if rows is None:
        rows = [t[:5] for t in TABLE_TOTALS.values()]
    rows = [tuple(int(v) for v in r) for r in _encoder_rows(rows, "jj", integers=True)]
    if len(rows) < 3:
        raise CalibrationError("need at least three encoder rows")
    M = np.array([[r[0], r[1], r[3]] for r in rows[:3]], dtype=float)
    if abs(np.linalg.det(M)) < 1e-9:
        raise CalibrationError("rows are linearly dependent; cannot calibrate")

    s_max = min((r[4] // r[2] for r in rows if r[2] > 0), default=0)
    solutions = []
    residuals = []
    for s in range(s_max + 1):
        b = np.array([r[4] - r[2] * s for r in rows[:3]], dtype=float)
        x = np.linalg.solve(M, b)
        xi = np.rint(x).astype(int).tolist()  # plain ints, printed as such in the error
        cand = (xi[0], xi[1], s, xi[2])
        res = [r[0] * cand[0] + r[1] * cand[1] + r[2] * s + r[3] * cand[3] - r[4]
               for r in rows]
        residuals.append((s, res))
        if min(xi) >= 0 and all(v == 0 for v in res):
            solutions.append(cand)
    if len(solutions) != 1:
        raise CalibrationError(
            f"{len(solutions)} admissible solutions; residuals by splitter value: "
            f"{residuals}")
    return {k: int(v) for k, v in zip(CELL_KINDS, solutions[0])}


def fit_unit_costs(rows=None, column: str = "power"):
    """Least-norm non-negative per-cell fit of power or area totals.

    The three totals underdetermine the four unit costs; among the exact
    solutions (a one-parameter family) the one closest to the origin is
    chosen, shifted along the null direction only if needed to stay
    non-negative.  ``rows`` holds at least three (xor, dff, splitter,
    converter, total) rows of finite numbers; any other input raises
    ``ValueError`` naming the offending row; no non-negative exact fit, a
    :class:`CalibrationError`.
    """
    _checks.one_of("column", column, ("power", "area"))
    if rows is None:
        idx = 5 if column == "power" else 6
        rows = [(t[0], t[1], t[2], t[3], t[idx]) for t in TABLE_TOTALS.values()]
    rows = _encoder_rows(rows, column, integers=False)
    if len(rows) < 3:
        raise ValueError(f"need at least three encoder rows, got {len(rows)}")
    A = np.array([[r[0], r[1], r[2], r[3]] for r in rows], dtype=float)
    b = np.array([r[4] for r in rows], dtype=float)
    p0, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.abs(A @ p0 - b).max() > (tol := 1e-9 * max(1.0, np.abs(b).max())):
        raise CalibrationError(f"{column} totals are inconsistent, no exact solution")
    _, _, vt = np.linalg.svd(A)
    v = vt[-1]
    lo, hi = -np.inf, np.inf
    for pi, vi in zip(p0, v):
        if vi > 1e-12:
            lo = max(lo, -pi / vi)
        elif vi < -1e-12:
            hi = min(hi, -pi / vi)
    p = p0 + min(max(0.0, lo), hi) * v
    # some costs no shift moves, and four independent rows have no null direction at all
    if (p < -tol).any() or np.abs(A @ p - b).max() > tol:
        raise CalibrationError(f"no non-negative {column} solution")
    return {k: float(p[i]) for i, k in enumerate(CELL_KINDS)}


def default_library() -> CellLibrary:
    """Library calibrated from the reference totals (jj exact, power/area fitted)."""
    jj = calibrate_library()
    power = fit_unit_costs(column="power")
    area = fit_unit_costs(column="area")
    return CellLibrary(
        kinds={k: CellKindCost(jj=jj[k], power_uW=power[k], area_mm2=area[k])
               for k in CELL_KINDS})


def write_library(library: CellLibrary, path) -> None:
    lines = ["# per-cell-kind costs: <KIND>.jj, <KIND>.power_uW, <KIND>.area_mm2"]
    for kind in CELL_KINDS:
        c = library[kind]
        lines.append(f"{kind}.jj = {c.jj}")
        lines.append(f"{kind}.power_uW = {c.power_uW:.6f}")
        lines.append(f"{kind}.area_mm2 = {c.area_mm2:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_library(path) -> CellLibrary:
    """Parse the flat key-value library format, with line context on errors."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise LibraryParseError(f"{path}:{lineno}: expected KEY = VALUE, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        parts = key.split(".")
        if len(parts) != 2 or parts[0] not in CELL_KINDS or parts[1] not in (
                "jj", "power_uW", "area_mm2"):
            raise LibraryParseError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise LibraryParseError(f"{path}:{lineno}: {key} given twice")
        try:
            values[key] = float(val.strip())
        except ValueError as e:
            raise LibraryParseError(f"{path}:{lineno}: bad number {val.strip()!r}") from e
    kinds = {}
    for kind in CELL_KINDS:
        try:
            kinds[kind] = CellKindCost(
                jj=values[f"{kind}.jj"],
                power_uW=values[f"{kind}.power_uW"],
                area_mm2=values[f"{kind}.area_mm2"],
            )
        except KeyError as e:
            raise LibraryParseError(f"{path}: missing entry {e.args[0]}") from e
    try:
        return CellLibrary(kinds=kinds)
    except ValueError as e:
        raise LibraryParseError(f"{path}: {e}") from e
