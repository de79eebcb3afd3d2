"""Fresh-process set-up of one workload, timed from outside by ``run.py``.

    PYTHONPATH=src python3 perfbench/setup_child.py WORKLOAD WORKDIR

Imports the program and does the lazy set-up the workload's first operation
needs; ``setup_s`` is the wall time of this whole process.
"""

import sys
from pathlib import Path

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]](Path(sys.argv[2])).setup()
