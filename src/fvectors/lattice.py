"""NE-lattice paths, vertex-disjoint pair families, and the path injection
proving the nonnegativity of consecutive-row 2x2 minors of M_d.

An NE-lattice path takes steps N = (0, 1) and E = (1, 0).  L(p, q, t, u)
is the set of pairs (P, Q) of vertex-disjoint paths where P runs from
(0, -p) to (t, -t) and Q from (0, -q) to (u, -u).  The count of such pairs
equals the binomial determinant C(p,t)*C(q,u) - C(p,u)*C(q,t)
(Gessel-Viennot), which turns the minor

    m[a][r]*m[a+1][s] - m[a][s]*m[a+1][r]

into the signed count

    #L(a, A-1) + #L(A-1, A) - #L(a, a+1) - #L(a+1, A)

over the fixed endpoint parameters t = d-s, u = d-r, with A = d+1-a.
Nonnegativity then follows from an explicit injection phi from the two
negative families into the two positive ones, built case by case on how
the paths begin.  verify_phi runs that construction exhaustively, word
by word where it can, and checks injectivity, case dispatch, membership,
and the anchor invariants that keep the cases from colliding.
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import NamedTuple

from .exact import binom_det, int_entries
from .transforms import check_dim, check_rs, delta
from .minors import phi_minor

CASE_1 = "1"
CASE_2A = "2a"
CASE_2B = "2b"
CASE_2C = "2c"


class _PathFamilyFields(NamedTuple):
    p: int
    q: int
    t: int
    u: int


class PathFamilySpec(_PathFamilyFields):
    """Parameters of the family L(p, q, t, u)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, p: int, q: int, t: int, u: int):
        # skips the general check on the hot path
        if not (type(p) is type(q) is type(t) is type(u) is int):
            int_entries((p, q, t, u))
        return tuple.__new__(cls, (p, q, t, u))


def _vertex_bit(x: int, y: int) -> int:
    """A distinct bit index for every lattice point with x >= 0, which is
    every point of a path starting on the y-axis: the Cantor pairing of x
    with y folded onto the naturals (0, -1, -2, ... to even, 1, 2, ... to
    odd numbers)."""
    n = x + (-2 * y if y <= 0 else 2 * y - 1)
    return n * (n + 1) // 2 + x


@lru_cache(maxsize=None)
def _paths_with_masks(start: tuple, end: tuple) -> dict:
    """Every monotone NE-path from start to end as {step word: vertex
    bitmask}, words in lexicographic order.  Two paths are vertex-disjoint
    exactly when their masks share no bit.  The dict is shared by every
    caller and must not be modified.  The words grow down a prefix tree,
    E before N, each mask its prefix's plus one bit from its level's table."""
    (x0, y0), (x1, y1) = start, end
    if x1 < x0 or y1 < y0:
        return {}
    words, masks, xs = [""], [1 << _vertex_bit(x0, y0)], [x0]
    for level in range(x0 + y0 + 1, x1 + y1 + 1):
        bits = [1 << _vertex_bit(x, level - x) for x in range(x1 + 1)]
        grown_words, grown_masks, grown_xs = [], [], []
        for word, mask, x in zip(words, masks, xs):
            if x < x1:
                grown_words.append(word + "E")
                grown_masks.append(mask | bits[x + 1])
                grown_xs.append(x + 1)
            if level - x <= y1:
                grown_words.append(word + "N")
                grown_masks.append(mask | bits[x])
                grown_xs.append(x)
        words, masks, xs = grown_words, grown_masks, grown_xs
    return dict(zip(words, masks))


def _family_paths(spec: PathFamilySpec):
    """The P and Q path dicts of L(p, q, t, u)."""
    return (
        _paths_with_masks((0, -spec.p), (spec.t, -spec.t)),
        _paths_with_masks((0, -spec.q), (spec.u, -spec.u)),
    )


def _count(p: int, q: int, t: int, u: int) -> int:
    """#L(p, q, t, u) by a walk over the levels x + y, on which every step
    climbs by one.  Two paths are vertex-disjoint exactly when their
    x-coordinates differ on every level they share; NE paths cannot swap
    sides without meeting, so the lower-starting path stays strictly right.
    It walks alone to the other's start level, leaving C(p-q, x) prefixes
    at each x, then both walk in lockstep with a count per (x_P, x_Q): one
    int of B-bit cells, row x_Q of width t+1.  A level adds the table
    shifted a cell (P steps E), then a row (Q steps E), and the mask keeps
    x_Q <= u and x_Q < x_P <= t; prefixes with too many N steps never
    reach (t, u), so the mask need not drop them.

    No cell carries into the next, for B = K.bit_length() with K =
    C(p, min(t, p//2)) * C(q, min(u, q//2)).  Before the mask as after it a
    cell counts distinct pairs of a P and a Q prefix (the shifted tables
    add pairs that differ in their last steps; cell t shifts into the next
    row's cell 0 as x_P = t+1).  P has at most C(p, x_P) prefixes with
    x_P <= t, or C(p-1, t) with t+1, each at most C(p, min(t, p//2)) as
    binomials rise towards the middle; likewise Q, from x_Q <= u: K < 2^B.

    The seed row holds C(p-q, x) <= C(p, x) <= K in cell x, 0 < x <= t.
    When p-q <= t it is (2^B + 1)^(p-q) less its cell 0, one power whose
    degree fits the row.  Past t the power would need the cells above t
    cut off after every squaring, so there the seed takes the ratios
    C(p-q, x) = C(p-q, x-1) * (p-q+1-x) / x."""
    if not (0 <= t <= p and 0 <= u <= q):
        return 0
    if p < q:
        p, q, t, u = q, p, u, t
    if t <= u:
        return 0
    b = (comb(p, min(t, p // 2)) * comb(q, min(u, q // 2))).bit_length()
    row = b * (t + 1)
    n = p - q
    if n <= t:
        v = ((1 << b) + 1) ** n - 1
    else:
        v, c = 0, 1
        for x in range(1, t + 1):
            c = c * (n + 1 - x) // x
            v |= c << b * x
    # mask row y (cells y+1..t) is 2^(row*(y+1)) - 2^((row+b)*y + b); its two
    # sums grow by doubling, where dividing by 2^row - 1 would be quadratic,
    # and each row they add past u is a multiple of 2^(row*(u+1)), cut off
    ends = starts = 1
    for i in range(u.bit_length()):
        ends |= ends << (row << i)
        starts |= starts << (row + b << i)
    mask = ((ends << row) - (starts << b)) & ((1 << row * (u + 1)) - 1)
    for _ in range(q):
        v += v << b
        v += v << row
        v &= mask
    return v >> (row * u + b * t)  # the top cell the mask keeps


def count_disjoint_pairs(spec: PathFamilySpec) -> int:
    """#L(p, q, t, u), the vertex-disjoint pairs of the family."""
    return _count(spec.p, spec.q, spec.t, spec.u)


def gv_identity_check(spec: PathFamilySpec) -> bool:
    """Gessel-Viennot: the binomial determinant equals the signed count of
    vertex-disjoint path pairs,

        B(p,q,t,u) = #L(p,q,t,u) - #L(p,q,u,t),

    the second term counting the pairs with the endpoints swapped.
    Whenever p <= q and t <= u (the only configuration the minor
    decomposition ever produces) every swapped pair would have to
    intersect, so that term vanishes and the determinant counts
    L(p,q,t,u) outright.
    """
    p, q, t, u = spec
    return binom_det(p, q, t, u) == _count(p, q, t, u) - _count(p, q, u, t)


class GVSweepReport(NamedTuple):
    max: int
    instances: int
    failures: tuple  # (p, q, t, u) of each family where the identity fails


def verify_gv(bound: int) -> GVSweepReport:
    """Check gv_identity_check on every family L(p, q, t, u) with each
    parameter in 0..bound."""
    int_entries((bound,), "parameters")
    if bound < 0:
        raise ValueError(f"max must be >= 0, got {bound}")
    failures = tuple(pqtu for pqtu in product(range(bound + 1), repeat=4)
                     if not gv_identity_check(PathFamilySpec(*pqtu)))
    return GVSweepReport(bound, (bound + 1) ** 4, failures)


def _lift_q(steps: str, d: int, a: int) -> str:
    """Case 1's map on Q, and case 2b's on P (_lift_p, a name of its own so
    that either case's map can be replaced alone): N^(A-a-2) before the
    word climbs the y-axis from (0, 1-A) to its start (0, -a-1)."""
    return "N" * (d - 1 - 2 * a) + steps


_lift_p = _lift_q


def _drop(steps: str) -> str:
    """Case 2a's map on either word: its first step, an N, dropped."""
    return steps[1:]


def _head_2c(q_steps: str, k: int, d: int, a: int, r: int, s: int):
    """Subcase 2c's map on P = E^k N P' and Q = N R E N^v E Q', the two E's
    being the k-th and (k+1)-st occurrences of E in Q: (the image P word
    up to its tail N P', the image Q word).  When P consists of E steps
    only (exactly when the P endpoints force d - s = a + 1), there is no
    N P' and the image drops the north step that P could not supply."""
    parts = q_steps.split("E", k + 1)
    if len(parts) < k + 2:
        raise ValueError("Q lacks the k-th and (k+1)-st E steps")
    r_word = "E".join(parts[:k])[1:]
    h = r_word.count("N")
    prefix = d - 2 * a - h - 2
    if prefix < 0:
        raise ValueError(f"negative north prefix in subcase 2c (a={a}, r={r}, s={s}, d={d})")
    return ("N" * prefix + "E" + r_word + "N",
            "E" * k + "N" * len(parts[k]) + "E" + "N" * (h + 1) + parts[k + 1])


def _phi_words(first: bool, p_steps: str, q_steps: str, d: int, a: int, r: int, s: int):
    """The injection on step words: (case, image P word, image Q word) for
    a pair of L(a, a+1) (first) or of L(a+1, A) given by its two words,
    built from the case's word maps.  The case is 1 on L(a, a+1); on
    L(a+1, A) it is 2b when Q begins E, 2a when P begins N, else 2c.  The
    image start points follow from it: (0, -a) and (0, 1-A) in cases 1 and
    2a, (0, 1-A) and (0, -A) in 2b and 2c."""
    if first:
        return CASE_1, p_steps, _lift_q(q_steps, d, a)
    if q_steps.startswith("E"):
        return CASE_2B, _lift_p(p_steps, d, a), q_steps
    if p_steps.startswith("N"):
        return CASE_2A, _drop(p_steps), _drop(q_steps)
    k = len(p_steps) - len(p_steps.lstrip("E"))
    p_head, q_bar = _head_2c(q_steps, k, d, a, r, s)
    return CASE_2C, p_head + p_steps[k:], q_bar


def phi(first: bool, p_word: str, q_word: str, d: int, a: int, r: int, s: int):
    """Apply the injection to the pair of L(a, a+1) (first) or of L(a+1, A)
    given by its two step words and return (case label, image P word,
    image Q word).  The image lands in L(a, A-1) for case 1 and subcase 2a,
    and in L(A-1, A) for subcases 2b and 2c."""
    check_rs(d, r, s, a)
    if not 0 <= a < delta(d):
        raise ValueError(f"need 0 <= a < delta, got a={a}, d={d}")
    low, high = (a, a + 1) if first else (a + 1, d + 1 - a)
    p_paths, q_paths = _family_paths(PathFamilySpec(low, high, d - s, d - r))
    p_mask, q_mask = p_paths.get(p_word), q_paths.get(q_word)
    if p_mask is None or q_mask is None or p_mask & q_mask:
        raise ValueError(
            f"pair does not belong to the domain for a={a}, r={r}, s={s}, d={d}"
        )
    return _phi_words(first, p_word, q_word, d, a, r, s)


class PhiReport(NamedTuple):
    d: int
    instances: int
    pairs_checked: int
    injective: bool
    cases_partition: bool
    membership_ok: bool
    anchors_ok: bool
    counts_consistent: bool
    failures: tuple

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, flag) for flag in _PHI_FLAGS)


_PHI_FLAGS = PhiReport._fields[3:8]  # each false exactly when a failure names it


def verify_phi(d: int) -> PhiReport:
    """Run the injection over every admissible (a, r, s) instance for
    dimension d and check all of its claimed properties:

      - the four cases partition the domain;
      - images land in the right family (cases 1/2a -> L(a, A-1),
        cases 2b/2c -> L(A-1, A));
      - the anchor point (0, -a-1) lies on the image pair exactly in
        cases 1 and 2b, which separates the cases within each target;
      - phi is globally injective on each instance;
      - #L(a, A-1) + #L(A-1, A) >= #L(a, a+1) + #L(a+1, A), with the
        difference equal to the consecutive-row minor of M_d.

    Pairs are carried as step words and vertex bitmasks: an image is in
    its target when each word is a path of the target's P or Q dict and
    the masks are disjoint.  Failures, (tag, reason) pairs, are collected
    in the report, never raised; each clears the flag it names.

    Cases 1, 2a and 2b are checked per word, in a loop over the P sides
    (a, s) and one over the Q sides (a, r), on which the words and their
    targets depend; a word is tagged (a, r, s, "P" or "Q", word) by the
    first instance that holds it, (a, 0, s) or (a, r, r+1).  A lifted
    word's image (case 1's Q, 2b's P) must be its mask plus the y-axis
    from (0, 1-A) to the anchor (0, -a-1), a dropped word's (2a) must lie
    within its mask; an image off its target clears membership_ok, one
    off its word injective.  The rest is implied: case 1's P words are
    L(a, A-1)'s and 2b's Q words L(A-1, A)'s, and they miss the axis (a P
    word from (0, -a) stays above it, an E-first Q word leaves x = 0 at
    once), so each image pair is disjoint and gives back the domain pair.
    No 2a image holds the anchor, where the axis ends: the P image starts
    above it, and the Q image lies within a Q word that does not climb to
    it (those are cut off).  So anchors_ok fails only in 2c.

    The loop over (r, s) checks 2c per pair, tagged (a, r, s, P word, Q
    word): a head that cannot be built or an intersecting image clears
    cases_partition, an image off its target membership_ok (each skips the
    pair), a P image through the anchor anchors_ok, a repeated image
    injective.  A Q image through the anchor meets the P image at its
    start (0, 1-A).  Then the domain's disjoint mask pairs are counted.
    """
    check_dim(d)
    dl = delta(d)
    pairs_checked = 0
    failures, broken = [], set()

    def fail(flag, tag, reason):
        broken.add(flag)
        failures.append((tag, reason))

    def word_failed(image, case, tag):
        flag, off = ("membership_ok", "in wrong family") if image is None else (
            "injective", "off its word")
        fail(flag, tag, f"case {case} image {off}")

    for a in range(dl):
        at = d + 1 - a
        anchor = 1 << _vertex_bit(0, -a - 1)
        [axis] = _paths_with_masks((0, 1 - at), (0, -a - 1)).values()
        p_sides, q_sides = {}, {}
        for s in range(1, d):  # P runs to (t, -t), t = d - s
            end = (d - s, s - d)
            p1, p2, high_p = (_paths_with_masks((0, y), end) for y in (-a, -a - 1, 1 - at))
            p2_items = list(p2.items())
            pn = bisect_left(p2_items, ("N",))  # the words come sorted, E-words first
            for w, m in p2_items:
                image = high_p.get(_lift_p(w, d, a))
                if image != m | axis:
                    word_failed(image, CASE_2B, (a, 0, s, "P", w))
            for w, m in p2_items[pn:]:
                image = p1.get(_drop(w))
                if image is None or image & ~m:
                    word_failed(image, CASE_2A, (a, 0, s, "P", w))
            p_sides[s] = (list(p1.values()), [m for _, m in p2_items]), p2_items[:pn], high_p
        for r in range(d - 1):  # Q runs to (u, -u), u = d - r
            end = (d - r, r - d)
            q1, low_q, high_q = (_paths_with_masks((0, y), end) for y in (-a - 1, 1 - at, -at))
            # last come the words through the anchor, N^(A-a-1)..., which meet every P
            q2_items = list(high_q.items())
            qn, qa = (bisect_left(q2_items, (w,)) for w in ("N", "N" * (d - 2 * a)))
            for w, m in q1.items():
                image = low_q.get(_lift_q(w, d, a))
                if image != m | axis:
                    word_failed(image, CASE_1, (a, r, r + 1, "Q", w))
            for w, m in q2_items[qn:qa]:
                image = low_q.get(_drop(w))
                if image is None or image & ~m:
                    word_failed(image, CASE_2A, (a, r, r + 1, "Q", w))
            q_sides[r] = (list(q1.values()), list(high_q.values())), q2_items[qn:qa], high_q
        for r, s in combinations(range(d), 2):
            p_masks, p2_east, high_p = p_sides[s]
            q_masks, q2_north, high_q = q_sides[r]
            images = set()
            for pw, pm in p2_east:
                rest = pw.lstrip("E")
                k = len(pw) - len(rest)
                for qw, qm in q2_north:
                    if pm & qm:
                        continue
                    try:
                        p_head, q_bar = _head_2c(qw, k, d, a, r, s)
                    except ValueError as exc:
                        fail("cases_partition", (a, r, s, pw, qw), f"construction failed: {exc}")
                        continue
                    image = image_pm, image_qm = high_p.get(p_head + rest), high_q.get(q_bar)
                    if image_pm is None or image_qm is None:
                        fail("membership_ok", (a, r, s, pw, qw), "case 2c image in wrong family")
                    elif image_pm & image_qm:
                        fail("cases_partition", (a, r, s, pw, qw),
                             "construction failed: image paths must be vertex-disjoint")
                    else:
                        if image_pm & anchor:
                            fail("anchors_ok", (a, r, s, pw, qw),
                                 "case 2c anchor invariant broken")
                        if image in images:
                            fail("injective", (a, r, s, pw, qw), "image collision")
                        images.add(image)
            domain_size = sum(list(map(pm.__and__, qms)).count(0)
                              for pms, qms in zip(p_masks, q_masks) for pm in pms)
            pairs_checked += domain_size
            target_total = sum(count_disjoint_pairs(PathFamilySpec(low, high, d - s, d - r))
                               for low, high in ((a, at - 1), (at - 1, at)))
            minor = phi_minor(d, a, a + 1, r, s)
            if target_total - domain_size != minor:
                fail("counts_consistent", (a, r, s),
                     f"count mismatch: {target_total} - {domain_size} != {minor}")
            elif minor < 0:
                fail("counts_consistent", (a, r, s), f"negative minor: {minor}")
    flags = (name not in broken for name in _PHI_FLAGS)
    return PhiReport(d, dl * d * (d - 1) // 2, pairs_checked, *flags, tuple(failures))
