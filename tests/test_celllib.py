"""Cell library calibration and cost reports."""

from pathlib import Path

import numpy as np
import pytest

from sfq_ecc import celllib
from sfq_ecc.celllib import (
    TABLE_TOTALS,
    CalibrationError,
    CellKindCost,
    CellLibrary,
    LibraryParseError,
    calibrate_library,
    cost_report,
    default_library,
    fit_unit_costs,
    read_library,
    write_library,
)
from sfq_ecc.codes import make_code
from sfq_ecc.netlist import Netlist
from sfq_ecc.synth import synthesize

JJ_ROWS = [t[:5] for t in TABLE_TOTALS.values()]
POWER_ROWS = [t[:4] + (t[5],) for t in TABLE_TOTALS.values()]


def brute_force_jj_solutions(rows):
    """Independent oracle: exhaustive search over all four unknowns."""
    xmax = min(r[4] // r[0] for r in rows)
    dmax = min(r[4] // r[1] for r in rows)
    smax = min(r[4] // r[2] for r in rows)
    sols = []
    for x in range(xmax + 1):
        for d in range(dmax + 1):
            for s in range(smax + 1):
                rest = rows[0][4] - rows[0][0] * x - rows[0][1] * d - rows[0][2] * s
                if rest < 0 or rest % rows[0][3]:
                    continue
                c = rest // rows[0][3]
                if all(r[0] * x + r[1] * d + r[2] * s + r[3] * c == r[4] for r in rows):
                    sols.append((x, d, s, c))
    return sols


def test_jj_calibration_unique_solution():
    assert brute_force_jj_solutions(JJ_ROWS) == [(11, 7, 4, 8)]
    got = calibrate_library()
    assert got == {"XOR": 11, "DFF": 7, "SPLITTER": 4, "SFQ2DC": 8}
    # the row check once used up an iterator before the rows were listed
    assert calibrate_library(iter(JJ_ROWS)) == got


def test_jj_back_substitution():
    jj = calibrate_library()
    assert 6 * jj["XOR"] + 8 * jj["DFF"] + 23 * jj["SPLITTER"] + 8 * jj["SFQ2DC"] == 278
    assert 8 * jj["XOR"] + 7 * jj["DFF"] + 26 * jj["SPLITTER"] + 8 * jj["SFQ2DC"] == 305
    assert 5 * jj["XOR"] + 8 * jj["DFF"] + 20 * jj["SPLITTER"] + 7 * jj["SFQ2DC"] == 247


def test_jj_calibration_rejects_degenerate_rows():
    row = JJ_ROWS[0]
    with pytest.raises(CalibrationError):
        calibrate_library([row, row, row])


@pytest.mark.parametrize("column,idx", [("power", 5), ("area", 6)])
def test_unit_cost_fit_reproduces_totals(column, idx):
    unit = fit_unit_costs(column=column)
    assert all(v >= 0 for v in unit.values())
    for name, t in TABLE_TOTALS.items():
        x, d, s, c = t[:4]
        total = (x * unit["XOR"] + d * unit["DFF"] + s * unit["SPLITTER"]
                 + c * unit["SFQ2DC"])
        assert total == pytest.approx(t[idx], abs=1e-6)


def test_power_fit_satisfies_reduced_equation():
    # eliminating DFF and converter unit costs from the three totals leaves
    # 14*P_XOR + 23*P_SPL = 81.1
    unit = fit_unit_costs(column="power")
    assert 14 * unit["XOR"] + 23 * unit["SPLITTER"] == pytest.approx(81.1, abs=1e-9)


def test_power_fit_is_least_norm():
    # scan the one-parameter solution family; no exact non-negative solution
    # may have smaller euclidean norm
    unit = fit_unit_costs(column="power")
    p = np.array([unit[k] for k in ("XOR", "DFF", "SPLITTER", "SFQ2DC")])
    A = np.array([[t[0], t[1], t[2], t[3]] for t in TABLE_TOTALS.values()], float)
    b = np.array([t[5] for t in TABLE_TOTALS.values()])
    _, _, vt = np.linalg.svd(A)
    v = vt[-1]
    best = min(np.linalg.norm(p + t * v)
               for t in np.linspace(-5, 5, 20001)
               if (p + t * v >= -1e-12).all())
    assert np.linalg.norm(p) <= best + 1e-6
    assert np.abs(A @ p - b).max() < 1e-9


@pytest.mark.parametrize("name,jj_total", [
    ("hamming84", 278), ("rm13", 305), ("hamming74", 247)])
def test_cost_report_jj_totals(name, jj_total):
    report = cost_report(synthesize(make_code(name)), default_library())
    assert report.jj_total == jj_total


def test_cost_report_power_area_match_reference():
    lib = default_library()
    for name, t in TABLE_TOTALS.items():
        report = cost_report(synthesize(make_code(name)), lib)
        assert report.power_total_uW == pytest.approx(t[5], abs=1e-6)
        assert report.area_total_mm2 == pytest.approx(t[6], abs=1e-6)


def test_cost_report_empty_netlist():
    report = cost_report(Netlist("empty"), default_library())
    assert report.jj_total == 0
    assert report.power_total_uW == 0.0
    assert report.area_total_mm2 == 0.0


def test_library_roundtrip(tmp_path):
    lib = default_library()
    path = tmp_path / "cells.cfg"
    write_library(lib, path)
    back = read_library(path)
    for kind in ("XOR", "DFF", "SPLITTER", "SFQ2DC"):
        assert back[kind].jj == lib[kind].jj
        assert back[kind].power_uW == pytest.approx(lib[kind].power_uW, abs=1e-6)


def test_library_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("XOR.jj = 11\ngarbage line\n")
    with pytest.raises(LibraryParseError, match="bad.cfg:2"):
        read_library(path)


def test_library_missing_kind(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("XOR.jj = 11\nXOR.power_uW = 1\nXOR.area_mm2 = 0.01\n")
    with pytest.raises(LibraryParseError, match="missing"):
        read_library(path)


@pytest.mark.parametrize("bad", [
    CellKindCost(0, 1.0, 1.0),
    CellKindCost(11.5, 1.0, 1.0),
    CellKindCost(float("inf"), 1.0, 1.0),
    CellKindCost(1, float("nan"), 1.0),
    CellKindCost(1, 1.0, float("inf")),
], ids=["zero_jj", "fractional_jj", "infinite_jj", "nan_power", "infinite_area"])
def test_library_rejects_nonpositive(bad):
    kinds = {k: CellKindCost(1, 1.0, 1.0) for k in ("XOR", "DFF", "SPLITTER", "SFQ2DC")}
    kinds["DFF"] = bad
    with pytest.raises(ValueError):
        CellLibrary(kinds=kinds)


@pytest.mark.parametrize("call", [
    lambda: fit_unit_costs(column="bogus"),
    lambda: calibrate_library([JJ_ROWS[0][:3]] + JJ_ROWS[1:]),
    lambda: calibrate_library([(5.5,) + JJ_ROWS[0][1:]] + JJ_ROWS[1:]),
    lambda: calibrate_library([JJ_ROWS[0][:4] + (247.5,)] + JJ_ROWS[1:]),
    lambda: fit_unit_costs(rows=[(5, 8, 20, 7)] * 3),
    lambda: fit_unit_costs(rows=[(5, 8, 20, 7, float("nan"))] + POWER_ROWS[1:]),
    lambda: fit_unit_costs(rows=[(5, 8, 20, 7, float("inf"))] + POWER_ROWS[1:]),
    lambda: fit_unit_costs(rows=[(5, 8, 20, 7, "81.7")] + POWER_ROWS[1:]),
    lambda: fit_unit_costs(rows=[]),
    lambda: fit_unit_costs(rows=POWER_ROWS[:2]),
    lambda: calibrate_library([5, 6, 7]),
    lambda: fit_unit_costs(rows=[5, 6, 7]),
    lambda: calibrate_library([JJ_ROWS[0][:4] + (10**400,)] + JJ_ROWS[1:]),
    lambda: fit_unit_costs(rows=[(5, 8, 20, 7, 10**400)] + POWER_ROWS[1:]),
], ids=["unknown_column", "short_row", "fractional_count", "fractional_total",
        "fit_short_row", "fit_nan_total", "fit_infinite_total", "fit_string_total",
        "fit_no_rows", "fit_two_rows", "numbers_not_rows", "fit_numbers_not_rows",
        "huge_total", "fit_huge_total"])
def test_fits_reject_malformed_input(call):
    # the area fit came back, an IndexError was raised, a count was truncated;
    # a fit returned NaN costs or raised IndexError or LinAlgError; rows that
    # were plain numbers raised TypeError, a total too large for a float OverflowError
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("rows, named", [
    ([(5, 8, 20, 7)] * 3, r"\(5, 8, 20, 7\)"),
    ([(5, 8, 20, 7, float("nan"))] * 3, r"\(5, 8, 20, 7, nan\)"),
    ([], "at least three encoder rows, got 0"),
])
def test_unit_cost_fit_names_the_bad_input(rows, named):
    assert fit_unit_costs(rows=POWER_ROWS) == fit_unit_costs(column="power")
    with pytest.raises(ValueError, match=named):
        fit_unit_costs(rows=rows)


def test_library_rejects_repeated_key(tmp_path):
    # the last value won silently
    shipped = Path(celllib.__file__).parent / "data" / "cell_library.cfg"
    path = tmp_path / "twice.cfg"
    text = shipped.read_text()
    path.write_text(text + "XOR.jj = 12\n")
    with pytest.raises(LibraryParseError, match=f"twice.cfg:{len(text.splitlines()) + 1}"):
        read_library(path)


def test_shipped_library_rewrites_byte_identical(tmp_path):
    shipped = Path(celllib.__file__).parent / "data" / "cell_library.cfg"
    lib = read_library(shipped)
    assert all(type(lib[k].jj) is int for k in ("XOR", "DFF", "SPLITTER", "SFQ2DC"))
    write_library(lib, tmp_path / "cells.cfg")
    assert (tmp_path / "cells.cfg").read_text() == shipped.read_text()
