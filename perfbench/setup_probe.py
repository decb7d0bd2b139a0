"""One set-up sample: a fresh interpreter imports qalcove, builds the given
root systems and their QBG edge tables, then prints its monotonic clock.

    python3 -I perfbench/setup_probe.py SRC_DIR TYPE [TYPE ...]

The caller subtracts the clock it read before starting this process, which
gives the time from interpreter start to ready.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from qalcove import cli, qbg  # noqa: E402,F401  (cli imports every layer)
from qalcove.rootsys import build_root_system  # noqa: E402

for label in sys.argv[2:]:
    rs = build_root_system(label)
    qbg.out_edges(rs, rs.identity)
print(repr(time.perf_counter()))
