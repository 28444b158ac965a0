"""Time one cold set-up of a workload and print it in seconds.

    python3 perfbench/cold_setup.py query_mix 1 fvectors
    python3 perfbench/cold_setup.py query_mix 1 fvectors_ref

run.py starts this in fresh processes, in pairs: one sets up with
fvectors from ./src, the other with the reference copy (reference.py),
and setup_s is REF_SETUP_S times the median ratio of the two.  The clock
starts on the first line, after interpreter start-up, and stops once the
package and the benchmark's modules are imported and the seed's requests
are generated.
"""

import time

START = time.perf_counter()

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads

workloads.load_api(sys.argv[3])
workloads.generate(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - START)
