"""Cell library calibration and cost reports."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from sfq_ecc.netlist import CELL_KINDS, Netlist
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


def test_jj_calibration_error_prints_plain_integers():
    # residuals were printed as np.int64(-4) under numpy 2
    with pytest.raises(CalibrationError, match=re.escape(
            "0 admissible solutions; residuals by splitter value: "
            "[(0, [-4, -4, -3]), (1, [-1, -1, -1]), ")):
        calibrate_library([(5, 8, 20, 7, 249)] + JJ_ROWS[1:])


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


@pytest.mark.parametrize("value", ["nan", "0", "inf", "11.5"])
def test_library_bad_value_names_the_file(tmp_path, value):
    # CellLibrary's bare ValueError named no file
    path = tmp_path / "cells.cfg"
    write_library(default_library(), path)
    path.write_text(path.read_text().replace("XOR.jj = 11\n", f"XOR.jj = {value}\n"))
    with pytest.raises(LibraryParseError, match="cells.cfg: .*XOR"):
        read_library(path)


def test_library_missing_kind(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("XOR.jj = 11\nXOR.power_uW = 1\nXOR.area_mm2 = 0.01\n")
    with pytest.raises(LibraryParseError, match="missing"):
        read_library(path)


@pytest.mark.parametrize("bad, message", [
    (CellKindCost(0, 1.0, 1.0), "jj for DFF must be positive"),
    (CellKindCost(11.5, 1.0, 1.0), "jj count for DFF must be integral"),
    (CellKindCost(float("inf"), 1.0, 1.0), "jj for DFF must be finite"),
    (CellKindCost(1, float("nan"), 1.0), "power_uW for DFF must be finite"),
    (CellKindCost(1, 1.0, float("inf")), "area_mm2 for DFF must be finite"),
    # True was taken as jj=1; 10**400, "11" and a tuple raised OverflowError,
    # TypeError and AttributeError
    (CellKindCost(True, 1.0, 1.0), "jj for DFF must be a number"),
    (CellKindCost(10**400, 1.0, 1.0), "jj for DFF must be finite"),
    (CellKindCost("11", 1.0, 1.0), "jj for DFF must be a number"),
    ((11, 1.0, 1.0), "costs for DFF must be a CellKindCost"),
], ids=["zero_jj", "fractional_jj", "infinite_jj", "nan_power", "infinite_area",
        "bool_jj", "huge_jj", "string_jj", "tuple_costs"])
def test_library_rejects_nonpositive(bad, message):
    kinds = {k: CellKindCost(1, 1.0, 1.0) for k in ("XOR", "DFF", "SPLITTER", "SFQ2DC")}
    kinds["DFF"] = bad
    with pytest.raises(ValueError, match=message):
        CellLibrary(kinds=kinds)


def test_library_rejects_unknown_kind():
    # an extra kind was kept silently
    kinds = {k: CellKindCost(1, 1.0, 1.0) for k in ("XOR", "DFF", "SPLITTER", "SFQ2DC", "NAND")}
    with pytest.raises(ValueError, match="unknown cell kind 'NAND'"):
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


@pytest.mark.parametrize("rows", [
    # XOR = -1, a cost the null direction (SFQ2DC alone) does not move
    [(1, 0, 0, 0, -1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1)],
    # four independent rows: one exact solution, with DFF = -1
    [(1, 0, 0, 0, 1), (0, 1, 0, 0, -1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1)],
    [(1, 1, 0, 0, 1), (0, 1, 0, 0, -1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1)],
], ids=["negative_off_null_direction", "negative_unique", "negative_unique_mixed"])
def test_unit_cost_fit_rejects_negative_exact_solutions(rows):
    # the fit returned a negative cost, or shifted the unique solution off the totals
    with pytest.raises(CalibrationError, match="no non-negative power solution"):
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


SHIPPED = Path(celllib.__file__).parent / "data" / "cell_library.cfg"
SHIPPED_LINES = SHIPPED.read_text().splitlines()
# printable ASCII and the ASCII characters str.splitlines also breaks lines at
LIBRARY_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126)
                       | st.sampled_from("\t\r\x0b\x0c\x1c\x1d\x1e"), max_size=12)
LIBRARY_VALUES = (st.integers(-3, 40).map(str) | st.floats().map(repr) | LIBRARY_TEXT
                  | st.sampled_from(["eleven", "", "1e400", "-0", "1_1", "0x10", " 11 "]))
LIBRARY_KEYS = st.sampled_from([f"{k}.{f}" for k in (*CELL_KINDS, "NAND")
                                for f in ("jj", "power_uW", "area_mm2", "bogus")]
                               + ["XOR", "XOR.jj.jj", "", "#XOR.jj"]) | LIBRARY_TEXT


@st.composite
def library_texts(draw):
    """The shipped library after up to three edits: a value changed, a line dropped or added."""
    lines = list(SHIPPED_LINES)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["value", "value", "drop", "add", "add", "text"]))
        if edit == "value" and at < len(lines) and "=" in lines[at]:
            lines[at] = f"{lines[at].partition('=')[0]}= {draw(LIBRARY_VALUES)}"
        elif edit == "drop" and at < len(lines):
            del lines[at]
        elif edit == "add":
            lines.insert(at, f"{draw(LIBRARY_KEYS)} {draw(st.sampled_from(['=', '=', '', '==']))} "
                             f"{draw(LIBRARY_VALUES)}")
        elif edit == "text":
            lines.insert(at, draw(LIBRARY_TEXT))
    return "\n".join(lines)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=library_texts())
def test_read_library_loads_or_names_the_fault(tmp_path, text):
    path = tmp_path / "cells.cfg"
    path.write_text(text)
    try:
        lib = read_library(path)
    except LibraryParseError as e:
        assert str(e).startswith(f"{path}:")
        return
    assert isinstance(lib, CellLibrary) and list(lib.kinds) == list(CELL_KINDS)
