"""The benchmark's workloads: requests made from a seed, the handlers that
send them to fvectors, and the expected answer of each.

A request is a tuple (kind, args, meta).  HANDLERS[kind](api, *args) sends
it; `expect(kind, args, meta)` computes the right answer from oracle.py
and `observed(kind, args, meta, out)` reduces the handler's output to the
same shape, so a request is correct when the two compare equal.  meta
carries what the check needs beyond the arguments: the recipe of a CLI
request, or None.
"""

import contextlib
import importlib
import io
import json
import random
from pathlib import Path
from types import SimpleNamespace

import oracle as O

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())["workloads"]
CLI = SPEC["query_mix"]["cli"]
KNOWN_MISHANDLED = frozenset(CLI["malformed_known_mishandled"])

FAMILIES = ("cyclic", "stacked", "cs_stacked")
ENTRY_POINTS = (
    "FVector", "GVector", "f_to_h", "h_to_f", "h_to_g", "g_to_f", "f_to_g",
    "FamilySpec", "g_of_family", "f_of_family",
    "macaulay_expand", "del_k", "is_m_sequence_upper", "is_M_sequence",
    "compare", "sandwich_simplicial", "lower_bound_cs", "ratio_chain",
    "verify_total_nonnegativity", "verify_lemma3",
    "PathFamilySpec", "verify_phi", "gv_identity_check",
)
SAFE_MAX = 2**53 - 1  # the CLI prints larger integers as strings
GV_MAX = 8
BOUND_LEVELS = [(d, r) for d in range(3, 13) for r in range(d - 1)]


def load_api(package="fvectors"):
    """Import fvectors, or its reference copy, and return the names the
    workloads call."""
    fvectors = importlib.import_module(package)
    cli = importlib.import_module(f"{package}.cli")
    api = SimpleNamespace(**{name: getattr(fvectors, name) for name in ENTRY_POINTS})
    api.run = cli.run
    return api


# --- handlers: one request each, timed as a whole ---------------------------

def _transform_fh(api, d, f):
    h = api.f_to_h(api.FVector(d, f))
    return h, api.h_to_f(h)


def _transform_gf(api, d, g):
    f = api.g_to_f(api.GVector(d, g))
    return f, api.f_to_g(f), api.h_to_g(api.f_to_h(f))


def _family(api, family, n, d):
    spec = api.FamilySpec(family, n, d)
    return api.g_of_family(spec), api.f_of_family(spec)


def _compare(api, d, g1, g2, r):
    return api.compare(api.GVector(d, g1), api.GVector(d, g2), r)


def _cli(api, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = api.run(argv)
    return code, out.getvalue()


def _gv(api, p, q, top):
    return [(t, u) for t in range(top + 1) for u in range(top + 1)
            if not api.gv_identity_check(api.PathFamilySpec(p, q, t, u))]


def _chain(api, d):
    return [(r, s) for r in range(d - 1) for s in range(r + 1, d)
            if not api.ratio_chain(d, r, s).all_hold]


HANDLERS = {
    "transform_fh": _transform_fh,
    "transform_gf": _transform_gf,
    "family": _family,
    "compare": _compare,
    "sandwich": lambda api, d, r, v: api.sandwich_simplicial(d, r, v),
    "lower_cs": lambda api, d, r, v: api.lower_bound_cs(d, r, v),
    "expand": lambda api, n, k: api.macaulay_expand(n, k),
    "del_k": lambda api, n, k: api.del_k(n, k),
    "m_upper": lambda api, seq: api.is_m_sequence_upper(seq),
    "M_seq": lambda api, seq: api.is_M_sequence(seq),
    "cli": _cli,
    "minors_all": lambda api, d: api.verify_total_nonnegativity(d),
    "lemma3": lambda api, d: api.verify_lemma3(d),
    "phi": lambda api, d: api.verify_phi(d),
    "gv": _gv,
    "chain": _chain,
}


# --- expected answers ---------------------------------------------------------

def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, int) and not isinstance(x, bool) and abs(x) > SAFE_MAX:
        return str(x)
    return x


def _smallest_at_least(fr, v, lo):
    """Smallest n >= lo with fr(n) >= v, for fr increasing in n."""
    return lo if fr(lo) >= v else O.largest(lambda n: fr(n) < v, lo) + 1


def _sandwich_params(d, r, v):
    n1 = O.largest(lambda n: O.family_f("stacked", n, d)[r] <= v, d + 1)
    n2 = _smallest_at_least(lambda n: O.family_f("cyclic", n, d)[r], v, d + 1)
    return n1, n2


def _cs_param(d, r, v):
    return O.largest(lambda n: O.family_f("cs_stacked", n, d)[r] <= v, d)


def _stanley_floor(d):
    return (1,) + tuple(O.C(d, i) - O.C(d, i - 1) for i in range(1, d // 2 + 1))


def _comparison(d, g1, g2, r):
    """(premise, guaranteed, {s: (holds, lhs, rhs)}, t, diffs) of compare."""
    fd, fg = O.f_of_g(d, g1), O.f_of_g(d, g2)
    t = O.crossing_index(g1, g2)
    diffs = tuple(a - b for a, b in zip(g1, g2))
    if fd[r] > fg[r]:
        return False, False, {}, t, diffs
    return True, t <= r + 1, {
        s: (fd[s] <= fg[s], fd[s], fg[s]) for s in range(r + 1, d)
    }, t, diffs


def _bounds_doc(d, r, conclusions, params, witness=None):
    doc = {"d": d, "r": r, "premise_holds": True, "guaranteed": True,
           "conclusions": {s: {"bound_holds": True, "lhs": lo, "rhs": hi}
                           for s, (lo, hi) in conclusions.items()}}
    if witness is not None:
        doc["witness"] = {"t": witness[0], "diffs": list(witness[1])}
    doc["family_params"] = list(params)
    return doc


def _cli_expected(recipe):
    """(exit code, stdout JSON) a correct CLI gives for a valid request."""
    kind, d = recipe[0], recipe[1]
    if kind == "transform":
        src, dst, vec = recipe[2:]
        h = O.h_of_f(d, vec) if src == "f" else vec
        if dst == "f":
            out = O.f_of_g(d, vec) if src == "g" else O.f_of_h(d, h)
        else:
            out = h if dst == "h" else O.g_of_h(d, h)
        return 0, {"d": d, dst: list(out)}
    if kind == "family":
        family, n, emit = recipe[2:]
        g = O.family_g(family.replace("-", "_"), n, d)
        return 0, {"d": d, emit: list(g if emit == "g" else O.f_of_g(d, g))}
    if kind == "check":
        which, vec = recipe[2:]
        if which == "m-sequence":
            result, doc = O.is_m_sequence_upper(vec), {}
        elif which == "nonnegative":
            result, doc = all(x >= 0 for x in vec), {}
        elif which == "dehn-sommerville":
            result, doc = tuple(vec) == tuple(reversed(vec)), {}
        else:
            result, doc = O.is_M_sequence(vec), {}
            if not result and all(x >= 0 for x in vec):
                k = next(k for k in range(2, len(vec)) if O.del_k(vec[k], k) > vec[k - 1])
                doc["witness"] = {"k": k, "del": O.del_k(vec[k], k), "bound": vec[k - 1]}
        return (0 if result else 1), {"result": result, **doc}
    if kind == "compare":
        g1, g2, r = recipe[2:]
        premise, guaranteed, conclusions, t, diffs = _comparison(d, g1, g2, r)
        doc = {"d": d, "r": r, "premise_holds": premise, "guaranteed": guaranteed,
               "conclusions": {s: {"bound_holds": h, "lhs": lo, "rhs": hi}
                               for s, (h, lo, hi) in conclusions.items()},
               "witness": {"t": t, "diffs": list(diffs)}}
        ok = premise and all(h for h, _, _ in conclusions.values())
        return (0 if ok else 1), doc
    which, r, v = recipe[2:]
    if which == "simplicial":
        n1, n2 = _sandwich_params(d, r, v)
        lo, hi = O.family_f("stacked", n1, d), O.family_f("cyclic", n2, d)
        return 0, _bounds_doc(d, r, {s: (lo[s], hi[s]) for s in range(r + 1, d)}, (n1, n2))
    n = _cs_param(d, r, v)
    lo = O.family_f("cs_stacked", n, d)
    g, floor = O.family_g("cs_stacked", n, d), _stanley_floor(d)
    witness = (O.crossing_index(g, floor), tuple(a - b for a, b in zip(g, floor)))
    return 0, _bounds_doc(d, r, {s: (lo[s], None) for s in range(r + 1, d)}, (n,), witness)


def expect(kind, args, meta):
    if kind == "transform_fh":
        d, f = args
        return O.h_of_f(d, f), tuple(f)
    if kind == "transform_gf":
        d, g = args
        return O.f_of_g(d, g), tuple(g), tuple(g)
    if kind == "family":
        family, n, d = args
        g = O.family_g(family, n, d)
        return g, O.f_of_g(d, g)
    if kind == "compare":
        premise, guaranteed, conclusions, _, _ = _comparison(*args)
        return premise, guaranteed, conclusions, True
    if kind == "sandwich":
        d, r, v = args
        n1, n2 = _sandwich_params(d, r, v)
        lo, hi = O.family_f("stacked", n1, d), O.family_f("cyclic", n2, d)
        return (n1, n2), {s: (True, lo[s], hi[s]) for s in range(r + 1, d)}
    if kind == "lower_cs":
        d, r, v = args
        n = _cs_param(d, r, v)
        lo = O.family_f("cs_stacked", n, d)
        return (n,), {s: (True, lo[s], None) for s in range(r + 1, d)}
    if kind == "expand":
        n, k = args
        return n, k, O.macaulay_terms(n, k), True
    if kind == "del_k":
        return O.del_k(*args)
    if kind == "m_upper":
        return O.is_m_sequence_upper(args[0])
    if kind == "M_seq":
        return O.is_M_sequence(args[0])
    if kind == "cli":
        if meta[0] == "malformed":
            return "json error, exit 2"
        code, doc = _cli_expected(meta)
        return code, _jsonable(doc)
    if kind == "minors_all":
        return O.minors_all_orders(args[0]), True
    if kind == "lemma3":
        return O.minors_2x2(args[0]), True
    if kind == "phi":
        return O.phi_domain(args[0]) + (True,)
    return []  # gv and chain: no failing instance


def observed(kind, args, meta, out):
    if kind in ("transform_fh", "transform_gf", "family"):
        return tuple(v.entries for v in out)
    if kind == "compare":
        holds = {s: (c.bound_holds, c.lhs, c.rhs) for s, c in out.conclusions.items()}
        certified = not out.guaranteed or all(h for h, _, _ in holds.values())
        return out.premise_holds, out.guaranteed, holds, certified
    if kind in ("sandwich", "lower_cs"):
        return out.family_params, {
            s: (c.bound_holds, c.lhs, c.rhs) for s, c in out.conclusions.items()}
    if kind == "expand":
        # Macaulay form: tops strictly decreasing, a_j >= j, summing to n
        tops = [a for a, _ in out.terms]
        form = all(x > y for x, y in zip(tops, tops[1:])) and all(
            a >= j for a, j in out.terms) and sum(O.C(a, j) for a, j in out.terms) == out.n
        return out.n, out.k, out.terms, form
    if kind == "cli":
        code, stdout = out
        if meta[0] == "malformed":
            doc = json.loads(stdout) if code == 2 and stdout.strip() else None
            ok = isinstance(doc, dict) and "error" in doc
            return "json error, exit 2" if ok else f"exit {code}, stdout {stdout[:60]!r}"
        return code, json.loads(stdout)
    if kind in ("minors_all", "lemma3"):
        return out.minors_checked, out.all_nonnegative and out.min_value >= 0
    if kind == "phi":
        return out.instances, out.pairs_checked, out.all_ok
    return out


def known_mishandled(kind, meta):
    """True for the malformed CLI requests the seed is known to mishandle."""
    return kind == "cli" and meta[0] == "malformed" and meta[1] in KNOWN_MISHANDLED


def work(kind, args):
    """Units of work a verify_sweep request does, for its throughput metric."""
    if kind == "minors_all":
        return O.minors_all_orders(args[0])
    if kind == "lemma3":
        return O.minors_2x2(args[0])
    if kind == "phi":
        return O.phi_domain(args[0])[1]
    if kind == "gv":
        return (args[2] + 1) ** 2
    return 0


# --- input generation -----------------------------------------------------------

def strata(rng, n):
    """n draws from [0, 1), the i-th from the middle fifth of the i-th of n
    equal strata.  Every seed then covers a value range the same way, and
    the costly requests of a pass differ between seeds by little."""
    return [(i + 0.4 + 0.2 * rng.random()) / n for i in range(n)]


def spread(levels, i):
    """The level stratum i is paired with: a fixed interleaving, so that
    each level meets low and high strata alike, whatever the seed."""
    return levels[i * 29 % len(levels)]


def log_uniform(lo, hi, u):
    return min(hi, max(lo, round(lo * (hi / lo) ** u)))


def allocate(weights, total):
    """Exact per-kind counts for `total` requests drawn by `weights`."""
    raw = {k: w * total for k, w in weights.items()}
    counts = {k: int(v) for k, v in raw.items()}
    for k in sorted(raw, key=lambda k: counts[k] - raw[k])[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


def _dim(rng):
    return rng.randint(*SPEC["query_mix"]["ranges"]["d"])


def _crossing_pair(rng, d):
    """Acceptance criterion 6's construction of a crossing pair."""
    dl = d // 2
    gamma = [1] + [rng.randint(0, 10**4) for _ in range(dl)]
    t = rng.randint(0, dl)
    delta_g = list(gamma)
    for i in range(1, dl + 1):
        if i <= t:
            delta_g[i] += rng.randint(0, 10**4)
        else:
            delta_g[i] -= rng.randint(0, gamma[i])
    return tuple(delta_g), tuple(gamma)


def _with_top(rng, a, k):
    """An n whose Macaulay expansion starts with C(a, k): n in the middle
    half of [C(a, k), C(a+1, k)), so the lower terms cost about the same
    for every seed."""
    gap = O.C(a, k - 1)
    return O.C(a, k) + gap // 4 + rng.randrange(gap // 2 + 1)


def _sequence(rng, k, a, valid):
    """(1, v_1, ..., v_k) whose top entry's expansion starts with C(a, k).
    Valid ones are M-sequences; the others break both sequence conditions
    at index k."""
    seq = [_with_top(rng, a, k)]
    for j in range(k, 1, -1):
        if j == k and not valid:
            seq.append(O.C(a - 1, k - 1) - 1)
        else:
            seq.append(O.del_k(seq[-1], j) + rng.randint(0, 2))
    return (1,) + tuple(reversed(seq))


def _floor(kind, d, r):
    family = "stacked" if kind in ("sandwich", "simplicial") else "cs_stacked"
    return O.family_f(family, O.family_floor(family, d), d)[r]


def _small_bounds(rng, kind, count):
    """(d, r, v) with f-values up to 10^3: half at r = 0, stratified, half
    at some r >= 1 whose floor is at most 500."""
    out = []
    half = count // 2
    for i, u in enumerate(strata(rng, half)):
        d = spread(range(3, 13), i)
        out.append((d, 0, log_uniform(_floor(kind, d, 0), 1000, u)))
    pairs = [(d, r) for d in range(3, 13) for r in range(1, d - 1)
             if _floor(kind, d, r) <= 500]
    for _ in range(count - half):
        d, r = rng.choice(pairs)
        out.append((d, r, log_uniform(_floor(kind, d, r), 1000, rng.random())))
    return out


def _small_sequence(rng, u, valid):
    k = rng.randint(2, 4)
    top = O.largest(lambda a: O.C(a + 1, k) <= 10**6, k + 1)
    return _sequence(rng, k, log_uniform(k + 1, top, u), valid)


def _query(kind, rng, count):
    if kind == "transform_fh":
        return [(kind, (d, tuple(rng.randint(0, 10**6) for _ in range(d))), None)
                for d in (_dim(rng) for _ in range(count))]
    if kind == "transform_gf":
        return [(kind, (d, (1,) + tuple(rng.randint(0, 10**6) for _ in range(d // 2))), None)
                for d in (_dim(rng) for _ in range(count))]
    if kind == "family":
        out = []
        for u in strata(rng, count):
            family, d = rng.choice(FAMILIES), _dim(rng)
            out.append((kind, (family, log_uniform(O.family_floor(family, d), 1000, u), d), None))
        return out
    if kind == "compare":
        out = []
        for _ in range(count):
            d = _dim(rng)
            out.append((kind, (d, *_crossing_pair(rng, d), rng.randint(0, d - 2)), None))
        return out
    if kind in ("sandwich", "lower_cs"):
        return [(kind, args, None) for args in _small_bounds(rng, kind, count)]
    if kind == "expand":
        return [(kind, (log_uniform(1, 10**6, u), rng.randint(2, 6)), None)
                for u in strata(rng, count)]
    return [(kind, (_small_sequence(rng, u, i % 2 == 0),), None)
            for i, u in enumerate(strata(rng, count))]


def _cli_valid(rng, kind, count):
    out = []
    if kind == "transform":
        for _ in range(count):
            d = _dim(rng)
            src, dst = rng.choice([("f", "h"), ("h", "f"), ("f", "g"), ("h", "g"), ("g", "f")])
            if src == "g":
                vec = (1,) + tuple(rng.randint(0, 10**6) for _ in range(d // 2))
            else:
                vec = tuple(rng.randint(0, 10**6) for _ in range(d))
                vec = O.h_of_f(d, vec) if src == "h" else vec
            argv = ["transform", "--d", str(d), "--from", src, "--to", dst,
                    "--vec", json.dumps(list(vec))]
            out.append((argv, ("transform", d, src, dst, vec)))
    elif kind == "family":
        for u in strata(rng, count):
            which, d, emit = rng.choice(["cyclic", "stacked", "cs-stacked"]), _dim(rng), rng.choice("fg")
            n = log_uniform(O.family_floor(which.replace("-", "_"), d), 1000, u)
            argv = ["family", which, "--d", str(d), "--n", str(n), "--emit", emit]
            out.append((argv, ("family", d, which, n, emit)))
    elif kind == "check":
        for i, u in enumerate(strata(rng, count)):
            which = ["m-sequence", "M-sequence", "nonnegative", "dehn-sommerville"][i % 4]
            d = _dim(rng)
            if which == "nonnegative":
                vec = tuple(rng.randint(-3, 10**6) for _ in range(d))
            elif which == "dehn-sommerville":
                vec = list(O.h_of_g(d, (1,) + tuple(rng.randint(0, 10**6) for _ in range(d // 2))))
                if i % 8 == 3:
                    vec[-1] += 1
                vec = tuple(vec)
            else:
                vec = _small_sequence(rng, u, i % 8 < 4)
            argv = ["check", which, "--vec", json.dumps(list(vec))]
            if which == "dehn-sommerville":
                argv += ["--d", str(d)]
            out.append((argv, ("check", d, which, vec)))
    elif kind == "compare":
        for _ in range(count):
            d = _dim(rng)
            g1, g2 = _crossing_pair(rng, d)
            r = rng.randint(0, d - 2)
            argv = ["compare", "--d", str(d), "--g1", json.dumps(list(g1)),
                    "--g2", json.dumps(list(g2)), "--r", str(r)]
            out.append((argv, ("compare", d, g1, g2, r)))
    else:
        for which in ("simplicial", "cs"):
            share = count // 2 if which == "simplicial" else count - count // 2
            for d, r, v in _small_bounds(rng, which, share):
                argv = ["bounds", which, "--d", str(d), "--r", str(r), "--value", str(v)]
                out.append((argv, ("bounds", d, which, r, v)))
    return out


def _cli_malformed(rng, tag, first):
    """One malformed CLI request of the given kind; `first` picks the
    literal input the kind is named after, where there is one."""
    d = _dim(rng)
    f = [rng.randint(0, 10**6) for _ in range(d)]
    transform = ["transform", "--d", str(d), "--from", "f", "--to", "h", "--vec"]
    if tag == "bad_length":
        return transform + [json.dumps(f + [1])]
    if tag == "bad_json":
        return transform + [json.dumps(f)[:-1] + ","]
    if tag == "g_to_h":
        g = [1] + f[: d // 2]
        return ["transform", "--d", str(d), "--from", "g", "--to", "h", "--vec", json.dumps(g)]
    if tag == "family_too_small":
        which = rng.choice(["cyclic", "stacked", "cs-stacked"])
        return ["family", which, "--d", str(d), "--n", str(d - 1 if which == "cs-stacked" else d)]
    if tag == "below_floor":
        which = rng.choice(["simplicial", "cs"])
        value = _floor(which, d, 0) - 1
        return ["bounds", which, "--d", str(d), "--r", "0", "--value", str(value)]
    if tag == "no_crossing":
        d = rng.randint(6, 12)
        g2 = [1] + [rng.randint(10, 10**4) for _ in range(d // 2)]
        g1 = list(g2)
        g1[1] += rng.randint(1, 10**4)
        g1[2] -= rng.randint(1, g2[2])
        g1[3] += rng.randint(1, 10**4)
        return ["compare", "--d", str(d), "--g1", json.dumps(g1), "--g2", json.dumps(g2),
                "--r", str(rng.randint(0, d - 2))]
    if tag == "bad_head":
        seq = list(_small_sequence(rng, rng.random(), True))
        seq[0] = rng.randint(2, 9)
        return ["check", "M-sequence", "--vec", json.dumps(seq)]
    if tag == "float":
        if first:
            return ["transform", "--d", "4", "--from", "f", "--to", "h",
                    "--vec", "[7.9,21,28,14]"]
        i = rng.randrange(d)
        return transform + ["[" + ",".join(
            f"{x}.{rng.randint(1, 9)}" if j == i else str(x) for j, x in enumerate(f)) + "]"]
    if tag == "bool":
        seq = _small_sequence(rng, rng.random(), True)
        return ["check", "m-sequence", "--vec", json.dumps([True, *seq[1:]])]
    if tag == "nested":
        if first:
            return ["transform", "--d", "4", "--from", "f", "--to", "h", "--vec", "[[1],2,3,4]"]
        return transform + [json.dumps([[f[0]]] + f[1:])]
    # argparse: a non-integer dimension
    return ["family", "cyclic", "--d", rng.choice(["three", "4.5", "d", "1e1"]), "--n", "8"]


def _cli_requests(rng):
    tags = CLI["malformed_handled"] + list(CLI["malformed_known_mishandled"])
    per_tag = CLI["malformed_per_kind"]
    out = []
    for kind in CLI["subcommands"]:
        out += [("cli", (argv,), recipe)
                for argv, recipe in _cli_valid(rng, kind, CLI["valid_per_subcommand"])]
    for tag in tags:
        out += [("cli", (_cli_malformed(rng, tag, i == 0),), ("malformed", tag))
                for i in range(per_tag)]
    return out


def _bounds_scaling(rng):
    spec = SPEC["bounds_scaling"]
    counts = allocate(spec["weights"], spec["pass_ops"])
    top, decades = spec["top_steps"], spec["decades"]
    ops = []
    for kind, count in counts.items():
        for i, u in enumerate(strata(rng, count)):
            s = log_uniform(max(1, top[kind] // 10**decades), top[kind], u)
            if kind in ("sandwich", "lower_cs"):
                d, r = spread(BOUND_LEVELS, i)
                family = "stacked" if kind == "sandwich" else "cs_stacked"
                n = O.family_floor(family, d) + s
                lo, hi = O.family_f(family, n, d)[r], O.family_f(family, n + 1, d)[r]
                ops.append((kind, (d, r, rng.randrange(lo, hi)), None))
            elif kind in ("expand", "del_k"):
                k = spread((2, 3, 4), i)
                a = k + max(1, s // k)
                ops.append((kind, (_with_top(rng, a, k), k), None))
            else:
                k = 2 + i % 2
                a = k + max(1, s // (k - 1))
                ops.append((kind, (_sequence(rng, k, a, i // 2 % 2 == 0),), None))
    rng.shuffle(ops)
    return ops


def _verify_sweep(rng):
    ops = [("minors_all", (d,), None) for d in range(3, 14)]
    ops += [("lemma3", (d,), None) for d in range(3, 31)]
    ops += [("phi", (d,), None) for d in range(3, 11)]
    ops += [("gv", (p, q, GV_MAX), None)
            for p in range(GV_MAX + 1) for q in range(GV_MAX + 1)]
    ops += [("chain", (d,), None) for d in range(3, 31)]
    rng.shuffle(ops)
    return ops


def generate(workload, seed):
    """The pass of `workload` for `seed`: a list of (kind, args, meta)."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "bounds_scaling":
        ops = _bounds_scaling(rng)
    elif workload == "verify_sweep":
        ops = _verify_sweep(rng)
    else:
        ops = []
        for kind, count in SPEC["query_mix"]["counts"].items():
            ops += _query(kind, rng, count)
        ops += _cli_requests(rng)
        rng.shuffle(ops)
    return ops
