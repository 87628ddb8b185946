"""Make ``perfbench`` and the program importable from the repository root.

Run with ``python3 -m pytest perfbench/tests -q``.
"""

import os
import sys
from pathlib import Path

# Calibration counts native threads; numerical libraries must not start
# idle worker threads when the program imports them.
for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[variable] = "1"

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
