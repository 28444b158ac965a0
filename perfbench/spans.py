"""Span tracing at fvectors module boundaries, installed from outside the package.

While a Tracer is installed, every function one fvectors module imports
from another is replaced, in the importing module's namespace, by a
wrapper that records a span: name, start, end, parent span and root span
(the request it belongs to).  The few calls inside a module that the
per-layer metrics name (the lattice hot loop and cli.build_parser) are
wrapped the same way.  `binomial` is only counted: it is called about a
hundred times per transform round trip, and a timed wrapper would cost
more than the work it measures.  `check_dim` and `delta` are not wrapped
for the same reason.

Spans stay in memory; `write` dumps them once the run has ended.
"""

import functools
import sys
import time
from array import array

from oracle import C

LAYERS = ("exact", "transforms", "families", "macaulay", "comparison",
          "minors", "lattice", "cli")
COUNTED = {"binomial"}
UNWRAPPED = {"check_dim", "delta"}
INTERNAL = {
    "lattice": ("enumerate_disjoint_pairs", "count_disjoint_pairs", "phi_with_case"),
    "cli": ("build_parser",),
}


def layer_of(fn):
    """The fvectors module that defines fn, or None for anything else."""
    module = getattr(fn, "__module__", None) or ""
    head, _, tail = module.rpartition(".")
    return tail if head == "fvectors" and tail in LAYERS else None


def _candidates(spec):
    """Path pairs a disjoint-pair enumeration of L(p, q, t, u) examines."""
    return C(spec.p, spec.t) * C(spec.q, spec.u)


def _tally_pairs(tallies, args, result):
    found = result if isinstance(result, int) else len(result)
    tallies["lattice.pairs_found"] = tallies.get("lattice.pairs_found", 0) + found
    tallies["lattice.pairs_examined"] = (
        tallies.get("lattice.pairs_examined", 0) + _candidates(args[0])
    )


def _tally(key, field):
    def observe(tallies, args, result):
        tallies[key] = tallies.get(key, 0) + getattr(result, field)
    return observe


OBSERVERS = {
    "lattice.enumerate_disjoint_pairs": _tally_pairs,
    "lattice.count_disjoint_pairs": _tally_pairs,
    "minors.verify_total_nonnegativity": _tally("minors.minors_checked", "minors_checked"),
    "minors.verify_lemma3": _tally("minors.minors_checked", "minors_checked"),
    "lattice.verify_phi": _tally("lattice.pairs_checked", "pairs_checked"),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.root = array("q")
        self._stack = []
        self.counts = {}
        self.tallies = {}
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn):
        nid = self._id(name)
        observe = OBSERVERS.get(name)
        ids, starts, ends = self.name_id, self.start, self.end
        parents, roots, stack = self.parent, self.root, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            if stack:
                parents.append(stack[-1])
                roots.append(roots[stack[0]])
            else:
                parents.append(-1)
                roots.append(idx)
            ids.append(nid)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self.tallies, args, result)
            return result

        return traced

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def _patch(self, owner, key, wrapper):
        """Replace owner's attribute key, or its item key when owner is a
        dict (cli reaches the transforms through a module-level table)."""
        if isinstance(owner, dict):
            self._patched.append((owner.__setitem__, key, owner[key]))
            owner[key] = wrapper
        else:
            self._patched.append((functools.partial(setattr, owner), key,
                                  getattr(owner, key)))
            setattr(owner, key, wrapper)

    def install(self, api):
        """Wrap the module boundaries of the loaded fvectors package and the
        entry points on api, the namespace the workload calls through."""
        for layer in LAYERS:
            module = sys.modules[f"fvectors.{layer}"]
            for attr, value in list(vars(module).items()):
                if isinstance(value, dict):
                    for key, item in value.items():
                        owner = layer_of(item)
                        if owner not in (None, layer) and not isinstance(item, type):
                            name = f"{owner}.{item.__name__}"
                            self._patch(value, key, self.span(name, item))
                    continue
                owner = layer_of(value)
                if owner is None or isinstance(value, type) or attr in UNWRAPPED:
                    continue
                if attr in COUNTED:
                    self._patch(module, attr, self.counter(f"{owner}.{attr}", value))
                elif owner != layer or attr in INTERNAL.get(layer, ()):
                    self._patch(module, attr, self.span(f"{owner}.{attr}", value))
        for attr, value in list(vars(api).items()):
            owner = layer_of(value)
            if owner is not None and not isinstance(value, type):
                self._patch(api, attr, self.span(f"{owner}.{attr}", value))

    def uninstall(self):
        while self._patched:
            put, key, original = self._patched.pop()
            put(key, original)

    def mark(self):
        """A snapshot to measure one pass from."""
        return (len(self.name_id),
                {k: v[0] for k, v in self.counts.items()},
                dict(self.tallies))

    def summary(self, since):
        """Per-name (calls, self ns) of the spans recorded after mark `since`,
        with the counts and tallies accumulated since then."""
        first, counts0, tallies0 = since
        last = len(self.name_id)
        child = [0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        spans = {}
        for i in range(first, last):
            name = self.names[self.name_id[i]]
            calls, self_ns = spans.get(name, (0, 0))
            spans[name] = (calls + 1,
                           self_ns + self.end[i] - self.start[i] - child[i - first])
        counts = {k: v[0] - counts0.get(k, 0) for k, v in self.counts.items()}
        tallies = {k: v - tallies0.get(k, 0) for k, v in self.tallies.items()}
        return spans, counts, tallies

    def write(self, path):
        """All spans as tab-separated lines: name, start_ns, end_ns, index of
        the parent span (-1 for a request's own span), index of that root."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\troot\n")
            names = self.names
            for i in range(len(self.name_id)):
                fh.write(f"{names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}"
                         f"\t{self.parent[i]}\t{self.root[i]}\n")
