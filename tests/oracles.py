"""Independent brute-force oracles used to pin expected values.

Nothing here takes the library's own computation paths.  Each claim has one
oracle, and a second only where the first cannot reach tier-1's sizes:

- binomials and binomial determinants: `pascal_table`, rows built by adding;
- determinants: `cofactor_det`, and `bareiss_det` (fraction-free
  elimination) for the larger scans, where n! cofactor terms take too long;
- M_d and g * M_d: `md_by_closed_form` and `f_by_md_product`;
- total nonnegativity of M_d: `minors_by_order`, a fresh det of every
  submatrix in k-major order, folded per max order by `fold_orders`;
- Lemma 3, the 2x2 minors: `two_by_two_scan`;
- the f <-> h transforms: direct polynomial expansion,
  `h_side_coefficients` and `f_side_coefficients`;
- the crossing index: `crossing_index_by_scan`, trying every t;
- cyclic and stacked f-vectors: `cyclic_fvector_gale` (Gale evenness) and
  `stacked_fvector_subdivision` (stellar subdivisions); `family_f_r`, the
  families' closed-form h-vectors, for members those two cannot reach;
- Macaulay expansions: `macaulay_expansions_by_search`, exhaustive;
  `macaulay_terms_by_scan`, each top walked up one step at a time, past
  the search's reach;
- the sandwich and cs parameters: `sandwich_params_by_scan` and
  `largest_n_below_by_scan`, walking n up one at a time;
- disjoint lattice path pairs: `disjoint_word_pairs` and its count
  `disjoint_pairs_by_scan`, testing the vertex sets of every pair of
  step-word paths;
- the injection phi: `phi_by_pairs`, one domain pair at a time;
- the CLI's argv: `build_parser`, the argparse parser, with a subparser
  per kind of a command, that the one-pass reader of the command table
  replaced.
"""

import argparse
import math
from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def pascal_table(top):
    """{(n, k): C(n, k)} for 0 <= k <= n <= top, each row built from the one
    above by adding neighbours, never by math.comb.  A pair it lacks is a
    vanishing binomial (k < 0, n < 0 or k > n), so .get(pair, 0) reads any
    binomial with n <= top."""
    table = {(0, 0): 1}
    for n in range(1, top + 1):
        for k in range(n + 1):
            table[n, k] = table.get((n - 1, k - 1), 0) + table.get((n - 1, k), 0)
    return table


def cofactor_det(m):
    """Determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(sub)
    return total


def bareiss_det(m):
    """Exact determinant of a square integer matrix (sequence of rows) by
    fraction-free (Bareiss) elimination: every intermediate value is an
    exact integer."""
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("det requires a non-empty square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def md_by_closed_form(d):
    """M_d as a list of rows, m[i][j] = C(d+1-i, d-j) - C(i, d-j) for
    0 <= i <= d // 2 and 0 <= j < d, straight from math.comb."""
    return [
        [math.comb(d + 1 - i, d - j) - math.comb(i, d - j) for j in range(d)]
        for i in range(d // 2 + 1)
    ]


def f_by_md_product(d, g):
    """The row vector g times M_d, M_d from md_by_closed_form: f_j is the
    sum of g_i m[i][j] over i."""
    md = md_by_closed_form(d)
    return tuple(sum(gi * row[j] for gi, row in zip(g, md)) for j in range(d))


def minors_by_order(md, det=cofactor_det):
    """For each order k = 1, ..., len(md): (minors scanned, least minor,
    its (rows, cols)), visiting the k x k submatrices by row tuple, then
    column tuple, in lexicographic order and keeping the first least one.
    Each minor is a fresh det of its submatrix."""
    n_rows, n_cols = len(md), len(md[0])
    out = []
    for k in range(1, n_rows + 1):
        count, low, witness = 0, None, None
        for rows in combinations(range(n_rows), k):
            for cols in combinations(range(n_cols), k):
                value = det([[md[i][j] for j in cols] for i in rows])
                count += 1
                if low is None or value < low:
                    low, witness = value, (rows, cols)
        out.append((count, low, witness))
    return out


def fold_orders(per_order):
    """(minors scanned, least minor, witness) of a k-major scan over the
    orders in per_order: the witness comes from the lowest order that
    attains the least minor."""
    low = min(m for _, m, _ in per_order)
    witness = next(w for _, m, w in per_order if m == low)
    return sum(c for c, _, _ in per_order), low, witness


def two_by_two_scan(md):
    """(minors scanned, least minor, witness) over every 2x2 minor
    m[a][r]*m[b][s] - m[a][s]*m[b][r], rows (a, b) then columns (r, s) in
    lexicographic order, first least one kept."""
    count, low, witness = 0, None, None
    for a, b in combinations(range(len(md)), 2):
        for r, s in combinations(range(len(md[0])), 2):
            value = md[a][r] * md[b][s] - md[a][s] * md[b][r]
            count += 1
            if low is None or value < low:
                low, witness = value, ((a, b), (r, s))
    return count, low, witness


def crossing_index_by_scan(diffs):
    """Smallest t with diffs[i] >= 0 for 1 <= i <= t and diffs[i] <= 0 for
    t < i < len(diffs), trying every t in turn; None if no t works."""
    last = len(diffs) - 1
    for t in range(last + 1):
        if all(diffs[i] >= 0 for i in range(1, t + 1)) and all(
            diffs[i] <= 0 for i in range(t + 1, last + 1)
        ):
            return t
    return None


def h_side_coefficients(d, h):
    """Coefficients (ascending in x) of sum_i h_i (x+1)^(d-i)."""
    coeffs = [0] * (d + 1)
    for i, hi in enumerate(h):
        for m in range(d - i + 1):
            coeffs[m] += hi * math.comb(d - i, m)
    return coeffs


def f_side_coefficients(d, f):
    """Coefficients (ascending) of sum_i f_{i-1} x^(d-i), with f_{-1} = 1."""
    ext = (1,) + tuple(f)
    coeffs = [0] * (d + 1)
    for i, fi in enumerate(ext):
        coeffs[d - i] += fi
    return coeffs


def cyclic_fvector_gale(n, d):
    """f-vector of the cyclic polytope C(n, d) by Gale's evenness condition.

    A d-subset S of the n vertices (on the moment curve) is a facet iff
    between any two vertices outside S there is an even number of elements
    of S.  Faces are all subsets of facets.
    """
    vertices = range(n)
    facets = []
    for cand in combinations(vertices, d):
        s = set(cand)
        outside = [v for v in vertices if v not in s]
        ok = True
        for ai in range(len(outside)):
            for bi in range(ai + 1, len(outside)):
                lo, hi = outside[ai], outside[bi]
                if sum(1 for v in cand if lo < v < hi) % 2 == 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            facets.append(cand)
    faces = set()
    for facet in facets:
        for size in range(1, d + 1):
            faces.update(combinations(facet, size))
    fvec = [0] * d
    for face in faces:
        fvec[len(face) - 1] += 1
    return tuple(fvec)


def stacked_fvector_subdivision(n, d):
    """f-vector of S(n, d) by simulating n-d-1 stellar subdivisions of
    facets, starting from the boundary of the d-simplex.

    Subdividing a facet adds one vertex joined to every proper face of the
    facet, and replaces the facet by d new ones.
    """
    f = [math.comb(d + 1, j + 1) for j in range(d)]
    for _ in range(n - d - 1):
        f[0] += 1
        for j in range(1, d - 1):
            f[j] += math.comb(d, j)
        f[d - 1] += d - 1
    return tuple(f)


def macaulay_expansions_by_search(n, k):
    """All ways of writing n = C(a_k, k) + ... + C(a_i, i) with
    a_k > a_{k-1} > ... > a_i >= i >= 1, by exhaustive search."""
    results = []

    def rec(remaining, j, upper, prefix):
        if remaining == 0:
            results.append(tuple(prefix))
            return
        if j < 1:
            return
        for a in range(j, upper):
            c = math.comb(a, j) if a >= j else 0
            if c <= remaining:
                rec(remaining - c, j - 1, a, prefix + [(a, j)])
        # a term may also be skipped only by terminating the sum, which the
        # remaining == 0 branch covers; intermediate levels are mandatory
        # once a longer suffix is still owed, so nothing else to do here.

    # a_k is bounded by C(a_k, k) <= n
    a_max = k
    while math.comb(a_max + 1, k) <= n:
        a_max += 1
    rec(n, k, a_max + 1, [])
    return results


def family_f_r(family, n, d, r):
    """f_r of a cyclic C(n, d), stacked S(n, d) or cs-stacked CS(2n, d)
    polytope, from the closed form of its h-vector (symmetric, h_i for
    i <= d/2 given below) as the x^(d-r-1) coefficient of
    sum_i h_i (x+1)^(d-i); the library's g-vectors and M_d are not used."""
    half = d // 2
    if family == "cyclic":
        low = [math.comb(n - d - 1 + i, i) for i in range(half + 1)]
    elif family == "stacked":
        low = [1] + [n - d] * half
    else:  # cs_stacked
        low = [1] + [2 * n - 2 * d + math.comb(d, i) for i in range(1, half + 1)]
    h = [low[min(i, d - i)] for i in range(d + 1)]
    return sum(hi * math.comb(d - i, d - r - 1) for i, hi in enumerate(h))


def largest_n_below_by_scan(family, d, r, value, n_floor):
    """Largest n >= n_floor with f_r(family(n, d)) <= value, walking up one
    n at a time; None when the floor member already exceeds value."""
    if family_f_r(family, n_floor, d, r) > value:
        return None
    n = n_floor
    while family_f_r(family, n + 1, d, r) <= value:
        n += 1
    return n


def sandwich_params_by_scan(d, r, value):
    """(n1, n2) of the simplicial sandwich: the largest stacked n1 with
    f_r <= value and the smallest cyclic n2 with f_r >= value."""
    n1 = largest_n_below_by_scan("stacked", d, r, value, d + 1)
    n2 = d + 1
    while family_f_r("cyclic", n2, d, r) < value:
        n2 += 1
    return n1, n2


def macaulay_terms_by_scan(n, k):
    """The greedy Macaulay expansion of n >= 1, each a_j found by walking
    up from j while C(a_j + 1, j) <= the remainder."""
    terms = []
    rem, j = n, k
    while rem > 0:
        a = j
        while math.comb(a + 1, j) <= rem:
            a += 1
        terms.append((a, j))
        rem -= math.comb(a, j)
        j -= 1
    return tuple(terms)


def path_vertices(start, word):
    """The vertices, in order, of the NE path from start along word, whose
    letters step by E = (1, 0) and N = (0, 1)."""
    x, y = start
    out = [(x, y)]
    for c in word:
        x, y = (x + 1, y) if c == "E" else (x, y + 1)
        out.append((x, y))
    return out


@lru_cache(maxsize=None)
def _ne_paths(start, end_x, width):
    """(word, vertex bitmask) of every NE path from (0, -start) to
    (end_x, -end_x), the vertex (x, y) at bit (x + y + width) * width + x:
    the words of length start with end_x E's, none when the end is out of
    reach."""
    if not 0 <= end_x <= start:
        return ()
    out = []
    for east_at in combinations(range(start), end_x):
        word = "".join("E" if i in east_at else "N" for i in range(start))
        mask = 0
        for x, y in path_vertices((0, -start), word):
            mask |= 1 << (x + y + width) * width + x
        out.append((word, mask))
    return tuple(out)


def disjoint_word_pairs(p, q, t, u):
    """L(p, q, t, u) as (P word, Q word) pairs: an NE path from (0, -p) to
    (t, -t) and one from (0, -q) to (u, -u) that share no vertex, testing
    every pair."""
    width = max(p, q, 0) + 1
    q_paths = _ne_paths(q, u, width)
    return [
        (pw, qw)
        for pw, pm in _ne_paths(p, t, width)
        for qw, qm in q_paths
        if not pm & qm
    ]


def disjoint_pairs_by_scan(p, q, t, u):
    """#L(p, q, t, u), testing every pair."""
    return len(disjoint_word_pairs(p, q, t, u))


def phi_by_pairs(d, phi_words):
    """The injection phi at dimension d, given as its word map
    phi_words(first, P word, Q word, d, a, r, s) -> (case, image P word,
    image Q word), checked one domain pair at a time: (domain pairs, the
    flags the checks clear, the (tag, reason) failures), tagged (a, r, s,
    P word, Q word).  A construction error or an intersecting image clears
    cases_partition and skips the pair; an image outside its target clears
    membership_ok, an image that holds the anchor (0, -a-1) in cases 2a and
    2c or misses it in 1 and 2b anchors_ok, and a repeated image injective.
    Domains and targets are the vertex-tested pairs of disjoint_word_pairs,
    case 1 and 2a images in L(a, A-1), 2b and 2c ones in L(A-1, A)."""
    pairs, cleared, failures = 0, set(), []

    def fail(flag, tag, reason):
        cleared.add(flag)
        failures.append((tag, reason))

    for a in range(d // 2):
        at, anchor = d + 1 - a, (0, -a - 1)
        for r, s in combinations(range(d), 2):
            t, u = d - s, d - r
            targets = {pq: (set(disjoint_word_pairs(*pq, t, u)), set())
                       for pq in ((a, at - 1), (at - 1, at))}
            for first, domain in ((True, (a, a + 1)), (False, (a + 1, at))):
                for pw, qw in disjoint_word_pairs(*domain, t, u):
                    pairs += 1
                    tag = (a, r, s, pw, qw)
                    try:
                        case, image_pw, image_qw = phi_words(first, pw, qw, d, a, r, s)
                    except ValueError as exc:
                        fail("cases_partition", tag, f"construction failed: {exc}")
                        continue
                    p, q = (a, at - 1) if case in ("1", "2a") else (at - 1, at)
                    members, images = targets[p, q]
                    image_p = set(path_vertices((0, -p), image_pw))
                    image_q = set(path_vertices((0, -q), image_qw))
                    if image_p & image_q:
                        fail("cases_partition", tag,
                             "construction failed: image paths must be vertex-disjoint")
                        continue
                    image = image_pw, image_qw
                    if image not in members:
                        fail("membership_ok", tag, f"case {case} image in wrong family")
                    if (anchor in image_p | image_q) != (case in ("1", "2b")):
                        fail("anchors_ok", tag, f"case {case} anchor invariant broken")
                    if image in images:
                        fail("injective", tag, "image collision")
                    images.add(image)
    return pairs, cleared, failures


def integer(text):
    """An integer option: an optional - then ASCII digits, at most 4300 of
    them; argparse names the type in its error from this __name__."""
    digits = sum(c.isdigit() for c in text)
    if digits > 4300:
        raise argparse.ArgumentTypeError(f"integers have at most 4300 digits, got {digits}")
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


def order(text):
    """The --order of verify minors: all, or an integer option."""
    return text if text == "all" else integer(text)


class _RaisingParser(argparse.ArgumentParser):
    # an error raises its text instead of printing usage and exiting 2
    def error(self, message):
        raise ValueError(message)


def build_parser():
    """The CLI's argv as argparse reads it, each kind of a command a
    subparser of its own: parse_args gives the namespace (`command` names
    the subcommand, `which` its kind), raises ValueError with argparse's
    error text, or prints help and exits 0."""
    parser = _RaisingParser(prog="cli")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("transform")
    p.add_argument("--d", type=integer, required=True)
    p.add_argument("--from", choices=["f", "h", "g"], required=True)
    p.add_argument("--to", choices=["f", "h", "g"], required=True)
    p.add_argument("--vec")
    p.add_argument("--file")

    kinds = commands.add_parser("family").add_subparsers(dest="which", required=True)
    for kind in ("cyclic", "stacked", "cs-stacked"):
        p = kinds.add_parser(kind)
        p.add_argument("--d", type=integer, required=True)
        p.add_argument("--n", type=integer, required=True)
        p.add_argument("--emit", choices=["f", "g"], default="f")

    kinds = commands.add_parser("check").add_subparsers(dest="which", required=True)
    for kind in ("m-sequence", "M-sequence", "nonnegative", "dehn-sommerville"):
        p = kinds.add_parser(kind)
        if kind == "dehn-sommerville":
            p.add_argument("--d", type=integer, required=True)
        p.add_argument("--vec")
        p.add_argument("--file")

    p = commands.add_parser("compare")
    p.add_argument("--d", type=integer, required=True)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--r", type=integer, required=True)

    kinds = commands.add_parser("bounds").add_subparsers(dest="which", required=True)
    for kind in ("simplicial", "cs"):
        p = kinds.add_parser(kind)
        p.add_argument("--d", type=integer, required=True)
        p.add_argument("--r", type=integer, required=True)
        p.add_argument("--value", type=integer, required=True)

    kinds = commands.add_parser("verify").add_subparsers(dest="which", required=True)
    for kind in ("minors", "lemma3", "gv", "phi", "ratio-chain"):
        p = kinds.add_parser(kind)
        if kind == "gv":
            p.add_argument("--max", type=integer, default=6)
            continue
        p.add_argument("--d", type=integer, default=10)
        if kind == "minors":
            p.add_argument("--order", type=order, default="all")
    return parser
