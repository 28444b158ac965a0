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
the paths begin, one row of _CASES per case.  verify_phi runs that table
exhaustively, word by word where it can, and checks injectivity, case
dispatch, membership, and the anchor invariants that keep the cases apart.
"""

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import NamedTuple

from .exact import binom_det, int_entries
from .transforms import check_dim, check_rs, delta
from .minors import phi_minor

CASE_1, CASE_2A, CASE_2B, CASE_2C = "1", "2a", "2b", "2c"


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


def _lift(steps: str, d: int, a: int) -> str:
    """Case 1's map on Q and 2b's on P: N^(A-a-2) before the word climbs
    the y-axis from (0, 1-A) to its start (0, -a-1)."""
    return "N" * (d - 1 - 2 * a) + steps


def _drop(steps: str, d: int, a: int) -> str:
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


# A case of phi: its label; whether it takes the pairs of L(a, a+1) (first) or
# of L(a+1, A); the first steps of P and of Q that select it; its maps, one per
# word (None: the word is its own image) or 2c's head, a map of the pair.  The
# label alone gives the target and whether the image holds the anchor (0, -a-1).
_Case = namedtuple("_Case", "label first p_first q_first p_map q_map pair_map",
                   defaults=(None,) * 3)
_CASES = (  # each domain pair is taken by the one row it matches, in any order
    _Case(CASE_1, True, "EN", "EN", q_map=_lift),
    _Case(CASE_2A, False, "N", "N", _drop, _drop),
    _Case(CASE_2B, False, "EN", "E", p_map=_lift),
    _Case(CASE_2C, False, "E", "N", pair_map=_head_2c),
)
_LOW_TARGET = (CASE_1, CASE_2A)  # their images lie in L(a, A-1), the others' in L(A-1, A)
_ANCHORED = (CASE_1, CASE_2B)  # their images hold the anchor, the others' miss it


def _phi_words(first: bool, p_steps: str, q_steps: str, d: int, a: int, r: int, s: int):
    """The injection on step words: (case, image P word, image Q word) for
    a pair of L(a, a+1) (first) or of L(a+1, A), by the maps of the one
    row of _CASES that takes it."""
    [row] = [row for row in _CASES if row.first is first
             and p_steps[:1] in row.p_first and q_steps[:1] in row.q_first]
    if row.pair_map is None:
        return (row.label, row.p_map(p_steps, d, a) if row.p_map else p_steps,
                row.q_map(q_steps, d, a) if row.q_map else q_steps)
    rest = p_steps.lstrip(row.p_first)
    p_head, q_bar = row.pair_map(q_steps, len(p_steps) - len(rest), d, a, r, s)
    return row.label, p_head + rest, q_bar


def phi(first: bool, p_word: str, q_word: str, d: int, a: int, r: int, s: int):
    """Apply the injection to the pair of L(a, a+1) (first) or of L(a+1, A)
    given by its two step words: (case label, image P word, image Q word),
    the image in L(a, A-1) in cases 1 and 2a, in L(A-1, A) in 2b and 2c."""
    if not (type(first) is bool and type(p_word) is type(q_word) is str):
        raise ValueError("first must be a bool and the two words strings")
    check_rs(d, r, s, a)
    if not 0 <= a < delta(d):
        raise ValueError(f"need 0 <= a < delta, got a={a}, d={d}")
    low, high = (a, a + 1) if first else (a + 1, d + 1 - a)
    p_paths, q_paths = _family_paths(PathFamilySpec(low, high, d - s, d - r))
    p_mask, q_mask = p_paths.get(p_word), q_paths.get(q_word)
    if p_mask is None or q_mask is None or p_mask & q_mask:
        raise ValueError(f"pair does not belong to the domain for a={a}, r={r}, s={s}, d={d}")
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

    Paths are step words with vertex bitmasks, and each case is its row of
    _CASES, as in phi.  Per a, each row slices every P side (a, s) and Q side
    (a, r) to the words that begin with its first steps, less the Q words
    through P's start, which meet every P.  A mapped word, tagged (a, r, s,
    "P" or "Q", word) by its first instance, (a, 0, s) or (a, r, r+1), must
    map to itself moved along the y-axis to its target's start, holding the
    anchor as its label says.  Kept words (case 1's P, 2b's Q) are their
    targets' own and miss the moved stretch and the anchor, so each image
    pair is disjoint, gives back its domain pair and holds the anchor as its
    mapped word does.  Per (r, s), each row counts the disjoint pairs of its
    slices, which sum to the domain size only if the rows partition it; 2c's
    head runs pair by pair, tagged (a, r, s, P word, Q word), and a Q image
    through the anchor meets the P image at (0, 1-A).  Failures, (tag,
    reason), are collected, never raised: an image off its target clears
    membership_ok, off its word or repeated injective, off the anchor rule
    anchors_ok; a 2c head that fails or intersects clears cases_partition.
    """
    check_dim(d)
    dl = delta(d)
    pairs_checked, failures, broken = 0, [], set()

    def fail(flag, tag, reason):
        broken.add(flag)
        failures.append((tag, reason))

    def word_failed(label, tag, image, mask, move, want):
        if image is None:
            return fail("membership_ok", tag, f"case {label} image in wrong family")
        if (image ^ mask ^ move) & ~anchor:
            fail("injective", tag, f"case {label} image off its word")
        if image & anchor != want:
            fail("anchors_ok", tag, f"case {label} anchor invariant broken")

    for a in range(dl):
        at = d + 1 - a
        anchor = 1 << _vertex_bit(0, -a - 1)
        cells = [], []  # per side (P, Q): each row's word map, start, target, slice and move
        for row in _CASES:
            starts = (a, a + 1) if row.first else (a + 1, at)
            targets = (a, at - 1) if row.label in _LOW_TARGET else (at - 1, at)
            want = anchor if row.label in _ANCHORED else 0
            # a side's words begin with one of the row's letters: they sort below past and, on
            # Q, the climb to P's start; a mapped one's image is it moved along the y-axis to its
            # target's start, anchored as its label says (a side's words all hold it or none do)
            for i, letters, word_map, y, ty in zip((0, 1), row[2:4], row[4:6], starts, targets):
                past, move = chr(ord(letters[-1]) + 1), None
                if word_map:
                    move = sum(_paths_with_masks((0, -max(y, ty)), (0, -1 - min(y, ty))).values())
                    move = move & ~anchor | want ^ (1 << _vertex_bit(0, -y)) & anchor
                cells[i].append((row, word_map, y, ty, letters[0],
                                 min(past, "N" * (y - starts[0])) if i else past, move, want))
        sides = {}, {}  # per side and s or r: each row's masks, or a pair map's words and target
        for i, heights in enumerate(((a, a + 1, at - 1), (a + 1, at, at - 1))):  # starts first
            for v in range(1 - i, d - i):  # s for P, which runs to (d-s, s-d); r for Q
                paths = {y: _paths_with_masks((0, -y), (d - v, v - d)) for y in heights}
                listed = {y: (list(paths[y]), list(paths[y].values())) for y in heights[:2]}
                tag, sides[i][v] = (a, 0, v, "P") if i == 0 else (a, v, v + 1, "Q"), []
                for row, word_map, y, ty, first, past, move, want in cells[i]:
                    words, masks = listed[y]
                    lo, hi = bisect_left(words, first), bisect_left(words, past)
                    words, masks, target = words[lo:hi], masks[lo:hi], paths[ty]
                    for w, m in zip(words, masks) if word_map else ():
                        image = target.get(word_map(w, d, a))
                        if image != m ^ move:
                            word_failed(row.label, (*tag, w), image, m, move, want)
                    sides[i][v].append((words, masks, target, want) if row.pair_map else masks)
        for r, s in combinations(range(d), 2):
            domain_size, images = 0, set()  # each row counts the disjoint pairs it takes
            for row, p_cell, q_cell in zip(_CASES, sides[0][s], sides[1][r]):
                if not row.pair_map:
                    for pm in p_cell:
                        domain_size += list(map(pm.__and__, q_cell)).count(0)
                    continue
                (p_words, p_masks, high_p, want), (q_words, q_masks, high_q, _) = p_cell, q_cell
                for pw, pm in zip(p_words, p_masks):
                    rest = pw.lstrip(row.p_first)
                    k = len(pw) - len(rest)
                    free = [qw for qw, qm in zip(q_words, q_masks) if not pm & qm]
                    domain_size += len(free)
                    for qw in free:
                        try:
                            p_head, q_bar = row.pair_map(qw, k, d, a, r, s)
                        except ValueError as exc:
                            fail("cases_partition", (a, r, s, pw, qw),
                                 f"construction failed: {exc}")
                            continue
                        image = image_pm, image_qm = high_p.get(p_head + rest), high_q.get(q_bar)
                        if image_pm is None or image_qm is None:
                            fail("membership_ok", (a, r, s, pw, qw),
                                 f"case {row.label} image in wrong family")
                        elif image_pm & image_qm:
                            fail("cases_partition", (a, r, s, pw, qw),
                                 "construction failed: image paths must be vertex-disjoint")
                        else:
                            if image_pm & anchor != want:
                                fail("anchors_ok", (a, r, s, pw, qw),
                                     f"case {row.label} anchor invariant broken")
                            if image in images:
                                fail("injective", (a, r, s, pw, qw), "image collision")
                            images.add(image)
            pairs_checked += domain_size
            target_total = (count_disjoint_pairs(PathFamilySpec(a, at - 1, d - s, d - r))
                            + count_disjoint_pairs(PathFamilySpec(at - 1, at, d - s, d - r)))
            minor = phi_minor(d, a, a + 1, r, s)
            if target_total - domain_size != minor:
                fail("counts_consistent", (a, r, s),
                     f"count mismatch: {target_total} - {domain_size} != {minor}")
            elif minor < 0:
                fail("counts_consistent", (a, r, s), f"negative minor: {minor}")
    flags = (name not in broken for name in _PHI_FLAGS)
    return PhiReport(d, dl * d * (d - 1) // 2, pairs_checked, *flags, tuple(failures))
