"""Reference arithmetic the benchmark checks fvectors outputs against.

Nothing here imports fvectors.  Expected values come from closed forms
evaluated with math.comb, and every integer search is a gallop plus
bisection, never the library's linear scans, so a check never runs the
code path it is checking.
"""

from math import comb


def C(n, k):
    """Binomial with the vanishing convention."""
    return comb(n, k) if n >= 0 and 0 <= k <= n else 0


def largest(pred, lo):
    """Largest integer x >= lo with pred(x), for pred true at lo and
    monotone (true up to some point, false after it)."""
    step = 1
    hi = lo + step
    while pred(hi):
        lo, step = hi, step * 2
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


# --- f/h/g vectors ---------------------------------------------------------

def h_of_f(d, f):
    ext = (1,) + tuple(f)
    return tuple(
        sum((-1) ** (k - i) * C(d - i, k - i) * ext[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def f_of_h(d, h):
    return tuple(
        sum(C(d - k, i - k) * h[k] for k in range(i + 1)) for i in range(1, d + 1)
    )


def g_of_h(d, h):
    return (1,) + tuple(h[i] - h[i - 1] for i in range(1, d // 2 + 1))


def h_of_g(d, g):
    """The Dehn-Sommerville h-vector with the given g-vector."""
    half = [sum(g[: i + 1]) for i in range(d // 2 + 1)]
    return tuple(half[min(i, d - i)] for i in range(d + 1))


def f_of_g(d, g):
    return f_of_h(d, h_of_g(d, g))


def family_g(family, n, d):
    if family == "cyclic":
        return (1,) + tuple(C(n - d - 2 + i, i) for i in range(1, d // 2 + 1))
    if family == "stacked":
        return (1, n - d - 1) + (0,) * (d // 2 - 1)
    return (1, 2 * n - d - 1) + tuple(
        C(d, i) - C(d, i - 1) for i in range(2, d // 2 + 1)
    )


def family_f(family, n, d):
    return f_of_g(d, family_g(family, n, d))


def family_floor(family, d):
    """Smallest admissible vertex parameter n of the family."""
    return d if family == "cs_stacked" else d + 1


def crossing_index(g_delta, g_gamma):
    """Smallest t with differences >= 0 on 1..t and <= 0 after, or None."""
    diffs = [a - b for a, b in zip(g_delta, g_gamma)]
    for t in range(len(diffs)):
        if all(x >= 0 for x in diffs[1 : t + 1]) and all(x <= 0 for x in diffs[t + 1 :]):
            return t
    return None


# --- Macaulay --------------------------------------------------------------

def macaulay_terms(n, k):
    terms = []
    rem, j = n, k
    while rem > 0:
        a = largest(lambda x: C(x, j) <= rem, j)
        terms.append((a, j))
        rem -= C(a, j)
        j -= 1
    return tuple(terms)


def del_k(n, k):
    return sum(C(a - 1, j - 1) for a, j in macaulay_terms(n, k)) if n else 0


def is_M_sequence(seq):
    return all(x >= 0 for x in seq) and all(
        del_k(seq[k], k) <= seq[k - 1] for k in range(2, len(seq))
    )


def is_m_sequence_upper(seq):
    if any(x < 0 for x in seq):
        return False
    for j in range(2, len(seq)):
        if seq[j]:
            m = largest(lambda x: C(x, j) <= seq[j], j)
            if seq[j - 1] < C(m - 1, j - 1):
                return False
    return True


# --- verification engines -------------------------------------------------

def minors_all_orders(d):
    """Number of square minors of the (delta+1) x d matrix M_d, all orders:
    sum_k C(delta+1, k) C(d, k) = C(delta+1+d, delta+1) - 1 (Vandermonde)."""
    return C(d // 2 + 1 + d, d // 2 + 1) - 1


def minors_2x2(d):
    return C(d // 2 + 1, 2) * C(d, 2)


def disjoint_pairs(p, q, t, u):
    """#L(p, q, t, u) for p <= q and t <= u, by Gessel-Viennot."""
    return C(p, t) * C(q, u) - C(p, u) * C(q, t)


def phi_domain(d):
    """(instances, domain pairs) that verify_phi(d) must walk through."""
    instances = pairs = 0
    for a in range(d // 2):
        for r in range(d):
            for s in range(r + 1, d):
                instances += 1
                pairs += disjoint_pairs(a, a + 1, d - s, d - r)
                pairs += disjoint_pairs(a + 1, d + 1 - a, d - s, d - r)
    return instances, pairs
