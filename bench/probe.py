"""Set-up probe: a fresh interpreter that imports the program, builds one
workload's inputs and prints the monotonic clock, which the parent compares
with the moment it started this process.

    PYTHONPATH=src python3 bench/probe.py <workload> <seed>
"""

import sys
import time

workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "cli":
    import lifshitz_plates.cli  # noqa: F401  (the import every CLI call pays)
else:
    import workloads

    workloads.IN_PROCESS[workload](seed)
print(repr(time.monotonic()))
