"""Cold start of one workload: import k2local, warm up, print ``ready``.

``run.py`` starts this in a fresh interpreter and times it from the start
of the process to the ``ready`` line.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

workloads.warm_up(sys.argv[1])
print("ready", flush=True)
