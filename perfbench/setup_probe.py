"""Time one set-up in a fresh process and print the seconds, at the
reference host speed (see hostspeed.py).

    python3 perfbench/setup_probe.py WORKLOAD

Set-up is what run.py does before its first timed call: import qcthreshold
(with numpy and scipy) and load the workload's reference data.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import env  # noqa: E402

env.pin_environment()
qc = env.import_package()
from perfbench.hostspeed import slowdown  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](qc, 0).load_references()
print((time.perf_counter() - _T0) / slowdown())
