"""Write ``goldens.json``: digests of the default-seed outputs.

    PYTHONPATH=src python3 perfbench/make_goldens.py

Run on the commit whose outputs are the reference.  It records the netlist
hash of every configuration, the SHA-256 of each ``mc`` output file at the
default seed, and the digest of the ``calibrate`` result (config and
achieved probabilities) at the default seed and the benchmark's reduced
chip counts.  A change that re-goldens these outputs on purpose re-runs it.
"""

import json
import tempfile
from pathlib import Path

from sfq_ecc import ppv

import workloads as w


def main():
    hashes = {n: ppv.make_setup(n).netlist.content_hash() for n in ppv.SETUP_NAMES}
    out_dir = Path(__file__).resolve().parents[1] / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        mc = w.Mc(Path(tmp))
        assert mc.run(w.DEFAULT_SEED) == 0
        files = [f"cdf_{n}.csv" for n in ppv.SETUP_NAMES] + ["mc_manifest.json"]
        mc_gold = {f: w.digest((mc.out / f).read_bytes()) for f in files}
    res = w.Calibrate(None).run(w.DEFAULT_SEED)
    cal_gold = w.digest({"config": res.config.to_dict(), "achieved": res.achieved})
    doc = {"netlist_hash": hashes,
           "mc": {str(w.DEFAULT_SEED): mc_gold},
           "calibrate": {str(w.DEFAULT_SEED): cal_gold}}
    w.GOLDENS_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
