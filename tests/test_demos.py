"""Smoke test of the narrative scripts under ``demos/``, and README held to what ships.

Each demo runs in its own interpreter, as a reader would run it, and must
exit cleanly and print the line that carries its point.  The quick tour runs
in-process and must give the results its comments state.  README's figures,
demo list and exit codes are read back and compared with what the package
and its shipped data files give, so a stale figure fails here.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sfq_ecc import cli
from sfq_ecc.celllib import cost_report, read_library
from sfq_ecc.codes import CODE_NAMES, bitstr, capability_summary, make_code
from sfq_ecc.ppv import CALIBRATION_THRESHOLD, SETUP_NAMES
from sfq_ecc.sim import latency, verify_equivalence
from sfq_ecc.synth import synthesize

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DATA = ROOT / "src" / "sfq_ecc" / "data"

# demo -> one line of its output, as a list of whitespace-separated fields
KEY_LINES = {
    "01_code_tables.py": "example: encode(1011) = 01100110",
    "02_encoder_netlists.py": "hamming84 6 8 23 (10+13) 8 278 92.3 0.177 2",
    "03_waveforms.py": "cycle 2: 01100110 <- codeword of message 1011",
    "04_variation_cdf.py": "hamming84 0.966 0.966 0.968 0.971 0.975 0.985",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("demo", sorted(KEY_LINES))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert KEY_LINES[demo].split() in lines, proc.stdout


def test_readme_quick_tour_runs_as_written():
    tour = (ROOT / "README.md").read_text().split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(block, ns)
    res, frames, net, code = ns["res"], ns["frames"], ns["net"], ns["code"]
    # the results the block's comments state
    assert bitstr(res.outputs[2]) == "01100110"
    assert res.outputs.shape == (4, 8)
    assert frames.shape == (2, 4)
    assert latency(net) == 2
    assert verify_equivalence(net, code) == (True, None)


def readme_prose() -> str:
    """README with every run of whitespace one space, so a sentence reads across line breaks."""
    return " ".join(README.read_text().split())


def readme_table(caption: str) -> list:
    """The cells of the first Markdown table after ``caption`` in README, header row first."""
    lines = README.read_text().split(caption, 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return [rows[0], *rows[2:]]  # rows[1] is the |---| rule


def test_readme_is_short_and_names_nothing_private():
    text = README.read_text()
    assert len(text.splitlines()) <= 250
    # a leading-underscore name or module, such as ppv._x or _checks
    assert re.findall(r"(?<!\w)_[A-Za-z]\w*", text) == []


def test_readme_cost_table_is_the_shipped_library_price():
    library = read_library(DATA / "cell_library.cfg")
    _, *rows = readme_table("## Reference figures reproduced")
    assert sorted(row[0] for row in rows) == sorted(CODE_NAMES)
    for name, cells, jj, power, area in rows:
        report = cost_report(synthesize(make_code(name)), library)
        n = report.counts
        assert cells == (f"{n['XOR']} XOR, {n['DFF']} DFF, {n['SPLITTER']} splitters, "
                         f"{n['SFQ2DC']} conv"), name
        assert (jj, power, area) == (str(report.jj_total), f"{report.power_total_uW:.1f}",
                                     f"{report.area_total_mm2:.3f}"), name


def test_readme_capability_table_is_the_enumerated_one():
    header, *rows = readme_table("Detect and correct capability")
    keys = [h.replace(" ", "_") for h in header]
    assert sorted(row[0] for row in rows) == sorted(CODE_NAMES)
    for row in rows:
        want = capability_summary(make_code(row[0])).table_row()
        assert dict(zip(keys, row)) == {k: str(v) for k, v in want.items()}


def test_readme_probabilities_are_the_shipped_calibration():
    doc = json.loads((DATA / "ppv_calibrated.json").read_text())
    achieved, targets = doc["achieved"], doc["targets"]
    _, *rows = readme_table("Monte Carlo zero-error probabilities")
    assert [row[0] for row in rows] == list(SETUP_NAMES)
    for name, p0, target in rows:
        assert (p0, target) == (f"{achieved[name]:.3f}", f"{targets[name]:.3f}"), name
    prose = readme_prose()
    worst = max(SETUP_NAMES, key=lambda s: abs(achieved[s] - targets[s]))
    assert f"the largest deviation is {doc['max_abs_dev']:.3f} ({worst})." in prose
    assert doc["ordering_ok"] and "The ordering is preserved" in prose
    assert f"under ±{round(doc['config']['spread'] * 100)} % spread" in prose


def readme_block(heading: str) -> list:
    """The lines of the first plain fenced block after ``heading`` in README."""
    block = README.read_text().split(heading, 1)[1].split("```\n", 1)[1]
    return block.split("```", 1)[0].splitlines()


def test_readme_command_line_runs_as_written(tmp_path, monkeypatch):
    # each line through cli.main, in one fresh directory with the default output directory;
    # the default calibration writes the shipped one, byte for byte
    lines = readme_block("## Command line")
    assert lines and [line for line in lines if not line.startswith("sfq-ecc ")] == []
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SFQ_ECC_OUT", raising=False)
    for line in lines:
        assert cli.main(shlex.split(line, comments=True)[1:]) == cli.EXIT_OK, line
    shipped = (DATA / "ppv_calibrated.json").read_bytes()
    assert (tmp_path / "ppv_calibrated.json").read_bytes() == shipped


def test_readme_lists_every_demo():
    listed = [line.split()[1] for line in readme_block("## Demos")]
    assert listed == sorted(f"demos/{p.name}" for p in (ROOT / "demos").glob("*.py"))


def test_readme_exit_codes_are_the_cli_ones():
    prose = readme_prose()
    assert (f"Exit codes: {cli.EXIT_OK} success, {cli.EXIT_VALIDATION} invalid input, "
            f"{cli.EXIT_STRUCTURAL} structural netlist problem, {cli.EXIT_NONCONVERGED} "
            "calibration did not converge.") in prose
    assert f"more than {CALIBRATION_THRESHOLD} (`ppv.CALIBRATION_THRESHOLD`)" in prose
