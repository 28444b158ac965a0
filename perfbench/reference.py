"""The reference copy: the fvectors code the benchmark was defined on,
frozen in perfbench/fvectors_ref (a byte-for-byte copy of src/fvectors at
that commit, importable as `fvectors_ref`), and the fixed figures that
times are reported against.

The host is shared and its speed drifts by up to twice for minutes at a
time, so raw clock times of one commit spread past any useful bound
between sets of runs.  A fixed pure-Python loop timed between requests
tracked that drift only loosely: the workloads' times moved 0.3 to 1
times as far as the loop's.  The copy does exactly the work the workload
does, so run.py sends every request to both ./src and the copy, back to
back and in turns first, and reports each timing statistic (wall_s,
latency_p50_ms, latency_tail_ms) as its REFERENCE value times the ratio
of the statistic over fvectors's request times to the same statistic over
the copy's.  A time therefore reads as seconds at a fixed speed, the one
at which the copy's statistic equals REFERENCE; on the commit that
defined the benchmark, where the two are the same code, each reads about
its REFERENCE value.  A change under src/ moves fvectors's times and
leaves the copy's alone, so it shows in full.  setup_s is REF_SETUP_S
times the ratio of cold set-ups that import fvectors and the copy
(cold_setup.py).

REFERENCE and REF_SETUP_S are fixed units, not measurements of a run:
they are the copy's figures, rounded, on a 2-core Xeon VM at 2.0 GHz.
"""

REFERENCE = {
    "query_mix": {"wall_s": 1.0, "latency_p50_ms": 0.022, "latency_tail_ms": 3.0},
    "bounds_scaling": {"wall_s": 3.5, "latency_p50_ms": 3.1, "latency_tail_ms": 83.0},
    "verify_sweep": {"wall_s": 4.5, "latency_p50_ms": 1.5, "latency_tail_ms": 24.0},
}
REF_SETUP_S = 0.3
PACKAGE = "fvectors_ref"
