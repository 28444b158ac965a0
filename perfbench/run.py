"""Run one fvectors benchmark workload and print its metrics.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; fvectors is imported from ./src.
perfbench/workloads.json defines the workloads.  The run times several
pairs of cold set-ups, each in a fresh process (perfbench/cold_setup.py),
sets up once more itself, then repeats the workload's pass of requests
until --seconds of measured time have passed, checking every answer after
each pass.

The host is shared, and its speed drifts by up to twice for minutes at a
time.  So every request is also sent to a frozen reference copy of
fvectors, right before or after the live call, and every reported time is
taken to a fixed machine speed by the same statistic of the copy's times
(reference.py).  The raw figures stay on the detail line.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it holds the details
(tail percentile and its sample count, failures by kind, each kind's
share of the pass time, and the workload's own throughput figures).  A traced run alternates untraced and
traced passes and writes its spans to .perfbench_out/<workload>.spans.tsv.
"""

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from reference import PACKAGE, REFERENCE, REF_SETUP_S

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("query_mix", "bounds_scaling", "verify_sweep")
SETUP_REPEATS = 5
MIN_PASSES = 3
TAIL_LADDER = (99.9, 99.5, 99, 95, 90, 75, 50)
PERCENTILE_SPAN = 5
MISSING = object()


class Raised:
    """The outcome of a request that raised instead of answering."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


class Run:
    def __init__(self, workloads, api, ref_api, ops, seed):
        self.w, self.api, self.ref_api, self.ops = workloads, api, ref_api, ops
        self.order = random.Random(f"perfbench/order/{seed}")
        self.expected = [MISSING] * len(ops)
        self.attempted = self.failed = self.unexpected = 0
        self.failures = {}

    def one_pass(self):
        """Send every request once, in a new order, to fvectors and, right
        before or after it in turn, to the reference copy.  Return the
        per-request ns of fvectors and of the copy, and fvectors's outputs,
        all indexed like self.ops."""
        api, ref_api, clock = self.api, self.ref_api, time.perf_counter_ns
        handlers, ops = self.w.HANDLERS, self.ops
        lat = array("q", bytes(8 * len(ops)))
        ref = array("q", bytes(8 * len(ops)))
        outs = [None] * len(ops)
        order = list(range(len(ops)))
        self.order.shuffle(order)
        for n, i in enumerate(order):
            kind, args, _ = ops[i]
            handler = handlers[kind]
            for live in (n % 2, not n % 2):
                t0 = clock()
                if live:
                    try:
                        outs[i] = handler(api, *args)
                    except Exception as exc:  # the request's outcome, checked below
                        outs[i] = Raised(exc)
                    lat[i] = clock() - t0
                else:
                    try:
                        handler(ref_api, *args)
                    except Exception:  # the copy fails where fvectors did at the start
                        pass
                    ref[i] = clock() - t0
        return lat, ref, outs

    def check(self, outs):
        w = self.w
        for i, ((kind, args, meta), out) in enumerate(zip(self.ops, outs)):
            self.attempted += 1
            if self.expected[i] is MISSING:
                self.expected[i] = w.expect(kind, args, meta)
            got = out
            if not isinstance(out, Raised):
                try:
                    got = w.observed(kind, args, meta, out)
                except Exception as exc:  # a malformed answer is a wrong answer
                    got = Raised(exc)
            if got == self.expected[i]:
                continue
            self.failed += 1
            known = w.known_mishandled(kind, meta)
            self.unexpected += not known
            tag = f"cli:{meta[1]}" if kind == "cli" and meta[0] == "malformed" else kind
            entry = self.failures.setdefault(
                tag, {"count": 0, "known_mishandled": known, "example": repr(got)[:160]})
            entry["count"] += 1


def percentile(sorted_values, p):
    """Percentile of an ascending list: the mean of the values ranked within
    PERCENTILE_SPAN of the nearest rank, so that on a pass of a few hundred
    requests a gap between neighbouring latencies does not make it jump."""
    k = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return statistics.fmean(sorted_values[max(0, k - PERCENTILE_SPAN):k + PERCENTILE_SPAN + 1])


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it."""
    return next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), 50)


def speed_scale(workload, ref_lat):
    """Factor that takes the run's times to the reference speed: the
    reference copy's fixed wall_s over its pass time in the run, both as
    sums of per-request medians."""
    return REFERENCE[workload]["wall_s"] * 1e9 / sum(ref_lat)


def at_reference(stat, live, ref, nominal):
    """stat of fvectors's request times at the reference speed: the fixed
    value of stat for the reference copy times the ratio of stat over
    fvectors's times to stat over the copy's, taken on the same requests
    in the same run."""
    return nominal * stat(live) / stat(ref)


def request_latencies(passes, scale=1.0):
    """Each request's median time (ns) over the passes, times scale."""
    return [statistics.median(times) * scale for times in zip(*passes)]


def time_share(ops, passes):
    """Each request kind's share of the pass time, from the per-request medians."""
    lat = request_latencies(passes)
    busy = {}
    for (kind, _, _), t in zip(ops, lat):
        busy[kind] = busy.get(kind, 0) + t
    total = sum(busy.values())
    return {kind: round(t / total, 4) for kind, t in busy.items()}


def workload_figures(w, ops, passes, scale):
    """Figures that exist on one workload only, from untraced passes:
    CLI latency on query_mix and engine throughputs on verify_sweep."""
    lat = request_latencies(passes, scale)
    cli = [lat[i] for i, op in enumerate(ops) if op[0] == "cli"]
    busy, done = {}, {}
    for i, (kind, args, _) in enumerate(ops):
        busy[kind] = busy.get(kind, 0) + lat[i]
        done[kind] = done.get(kind, 0) + w.work(kind, args)

    def rate(kind):
        return done[kind] / (busy[kind] / 1e9) if busy.get(kind) else 0.0

    return {
        "cli_latency_p50_ms": (statistics.median(cli) / 1e6 if cli else 0.0, "ms"),
        "minors_per_s": (rate("minors_all"), "1/s"),
        "minors_2x2_per_s": (rate("lemma3"), "1/s"),
        "phi_pairs_per_s": (rate("phi"), "1/s"),
        "gv_instances_per_s": (rate("gv"), "1/s"),
    }


def layer_figures(summary):
    spans, counts, tallies = summary

    def calls(match):
        return sum(c for name, (c, _) in spans.items() if match(name))

    def self_s(match):
        return sum(ns for name, (_, ns) in spans.items() if match(name)) / 1e9

    def fn(full):
        return lambda name: name == full

    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    examined = tallies.get("lattice.pairs_examined", 0)
    return {
        "exact.binomial.calls": (counts.get("exact.binomial", 0), "count"),
        "exact.det.calls": (calls(fn("exact.det")), "count"),
        "exact.det.self_s": (self_s(fn("exact.det")), "s"),
        "transforms.calls": (calls(layer("transforms")), "count"),
        "transforms.self_s": (self_s(layer("transforms")), "s"),
        "families.f_of_family.calls": (calls(fn("families.f_of_family")), "count"),
        "families.self_s": (self_s(layer("families")), "s"),
        "macaulay.calls": (calls(layer("macaulay")), "count"),
        "macaulay.self_s": (self_s(layer("macaulay")), "s"),
        "comparison.calls": (calls(layer("comparison")), "count"),
        "comparison.self_s": (self_s(layer("comparison")), "s"),
        "minors.minors_checked": (tallies.get("minors.minors_checked", 0), "count"),
        "minors.self_s": (self_s(layer("minors")), "s"),
        "lattice.pairs_checked": (tallies.get("lattice.pairs_checked", 0), "count"),
        "lattice.enumerate_disjoint_pairs.self_s":
            (self_s(fn("lattice.enumerate_disjoint_pairs")), "s"),
        "lattice.count_disjoint_pairs.self_s":
            (self_s(fn("lattice.count_disjoint_pairs")), "s"),
        "lattice.phi_with_case.calls": (calls(fn("lattice.phi_with_case")), "count"),
        "lattice.phi_with_case.self_s": (self_s(fn("lattice.phi_with_case")), "s"),
        "lattice.disjoint_yield":
            (tallies.get("lattice.pairs_found", 0) / examined if examined else 0.0, "ratio"),
        "cli.run.calls": (calls(fn("cli.run")), "count"),
        "cli.run.self_s": (self_s(fn("cli.run")), "s"),
        "cli.build_parser.self_s": (self_s(fn("cli.build_parser")), "s"),
    }


def measure(run, seconds):
    """Repeat passes until `seconds` of fvectors and reference time have
    passed.  Return each pass's request ns for fvectors and for the copy,
    and ru_maxrss (MB) as it stood after MIN_PASSES passes, before the
    run's own records of later passes could add to it."""
    passes, refs, busy = [], [], 0
    while busy < seconds * 1e9 or len(passes) < MIN_PASSES:
        lat, ref, outs = run.one_pass()
        run.check(outs)
        passes.append(lat)
        refs.append(ref)
        busy += sum(lat) + sum(ref)
        if len(passes) == MIN_PASSES:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, refs, rss_mb


def cold_setups(workload, seed):
    """SETUP_REPEATS pairs of set-ups, each in a fresh process, one with
    fvectors and one with the reference copy, in turns first.  Return each
    pair's fvectors set-up in seconds scaled to the reference speed, and
    the raw seconds of the pairs."""
    script = str(Path(__file__).with_name("cold_setup.py"))

    def setup_s(package):
        return float(subprocess.run(
            [sys.executable, script, workload, str(seed), package], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60).stdout)

    scaled, raw = [], []
    for n in range(SETUP_REPEATS):
        if n % 2:
            ref = setup_s(PACKAGE)
        live = setup_s("fvectors")
        if not n % 2:
            ref = setup_s(PACKAGE)
        scaled.append(REF_SETUP_S * live / ref)
        raw.append((live, ref))
    return scaled, raw


def measure_traced(run, seconds, tracer):
    """Alternate an untraced and a traced pass until `seconds` have passed.
    Return the request ns of fvectors and of the copy on the untraced
    passes, the same two on the traced passes, and the traced passes' span
    summaries."""
    plain, plain_refs, traced, traced_refs, summaries, busy = [], [], [], [], [], 0
    while busy < seconds * 1e9 or not summaries:
        lat, ref, outs = run.one_pass()
        run.check(outs)
        plain.append(lat)
        plain_refs.append(ref)
        busy += sum(lat) + sum(ref)
        mark = tracer.mark()
        tracer.install(run.api)
        try:
            lat, ref, outs = run.one_pass()
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary(mark))
        run.check(outs)
        traced.append(lat)
        traced_refs.append(ref)
        busy += sum(lat) + sum(ref)
    return plain, plain_refs, traced, traced_refs, summaries


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fvectors" / "__init__.py").is_file():
        print(f"perfbench: no fvectors package under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as w
    from spans import Tracer

    setup, setup_raw = ([], []) if args.trace else cold_setups(args.workload, args.seed)
    ops = w.generate(args.workload, args.seed)
    run = Run(w, w.load_api(), w.load_api(PACKAGE), ops, args.seed)

    if args.trace:
        tracer = Tracer()
        plain, plain_refs, traced, traced_refs, summaries = measure_traced(
            run, args.seconds, tracer)
        layers = [layer_figures(s) for s in summaries]
        metrics = {name: (statistics.median(l[name][0] for l in layers)
                          if unit == "s" else value, unit)
                   for name, (value, unit) in layers[0].items()}
        counts_repeat = all(
            l[name] == layers[0][name] for l in layers for name in l if layers[0][name][1] != "s")
        def relative(passes, refs):
            return sum(request_latencies(passes)) / sum(request_latencies(refs))

        metrics["trace_overhead_ratio"] = (
            relative(traced, traced_refs) / relative(plain, plain_refs), "ratio")
        metrics.update(workload_figures(
            w, ops, plain, speed_scale(args.workload, request_latencies(plain_refs))))
        metrics["fail_ratio"] = (run.failed / run.attempted, "ratio")
        tracer.write(ROOT / ".perfbench_out" / f"{args.workload}.spans.tsv")
        detail = {"traced_passes": len(traced), "untraced_passes": len(plain),
                  "spans": len(tracer.name_id), "counts_repeat": counts_repeat}
    else:
        passes, refs, rss_mb = measure(run, args.seconds)
        lat, ref = sorted(request_latencies(passes)), sorted(request_latencies(refs))
        scale = speed_scale(args.workload, ref)
        tail = tail_percentile(len(lat))
        nominal = REFERENCE[args.workload]
        wall_s = at_reference(sum, lat, ref, nominal["wall_s"])
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall_s, "s"),
            "ops_per_s": (len(lat) / wall_s, "1/s"),
            "latency_p50_ms": (at_reference(
                lambda v: percentile(v, 50), lat, ref, nominal["latency_p50_ms"]), "ms"),
            "latency_tail_ms": (at_reference(
                lambda v: percentile(v, tail), lat, ref, nominal["latency_tail_ms"]), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        detail = {"passes": len(passes), "requests": len(lat), "tail_percentile": tail,
                  "tail_requests_beyond": len(lat) - math.ceil(tail / 100 * len(lat)),
                  "raw_wall_s": sum(lat) / 1e9,
                  "raw_reference_wall_s": sum(ref) / 1e9,
                  "raw_latency_p50_ms": percentile(lat, 50) / 1e6,
                  "raw_latency_tail_ms": percentile(lat, tail) / 1e6,
                  "raw_reference_latency_p50_ms": percentile(ref, 50) / 1e6,
                  "raw_reference_latency_tail_ms": percentile(ref, tail) / 1e6,
                  "fail_ratio": run.failed / run.attempted,
                  "time_share": time_share(ops, passes),
                  **{k: v for k, (v, _) in workload_figures(w, ops, passes, scale).items()}}
    detail.update(workload=args.workload, seed=args.seed, setup_s_runs=setup,
                  setup_raw_s=setup_raw,
                  failures=run.failures)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run.unexpected == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
