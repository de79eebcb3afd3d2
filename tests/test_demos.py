"""Smoke test of the narrative scripts under ``demos/`` and the README quick tour.

Each demo runs in its own interpreter, as a reader would run it, and must
exit cleanly and print the line that carries its point.  The quick tour runs
in-process and must give the results its comments state.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sfq_ecc.codes import bitstr
from sfq_ecc.sim import latency, verify_equivalence

ROOT = Path(__file__).resolve().parents[1]

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
