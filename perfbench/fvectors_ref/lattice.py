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
the paths begin.  verify_phi runs that construction exhaustively and
checks injectivity, case dispatch, membership, and the anchor invariants
that keep the cases from colliding.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .exact import binom_det, binomial
from .transforms import check_dim, delta
from .minors import phi_minor

CASE_1 = "1"
CASE_2A = "2a"
CASE_2B = "2b"
CASE_2C = "2c"


@dataclass(frozen=True)
class LatticePath:
    """A start point in Z^2 and a word over {N, E}."""

    start: tuple
    steps: str

    def __post_init__(self):
        if any(c not in "NE" for c in self.steps):
            raise ValueError(f"steps must be a word over N/E, got {self.steps!r}")

    @property
    def end(self) -> tuple:
        x, y = self.start
        return (x + self.steps.count("E"), y + self.steps.count("N"))

    def vertices(self) -> tuple:
        x, y = self.start
        out = [(x, y)]
        for c in self.steps:
            if c == "E":
                x += 1
            else:
                y += 1
            out.append((x, y))
        return tuple(out)


def paths_disjoint(p: LatticePath, q: LatticePath) -> bool:
    return not set(p.vertices()) & set(q.vertices())


@dataclass(frozen=True)
class PathPair:
    """A vertex-disjoint pair of NE-lattice paths."""

    p: LatticePath
    q: LatticePath

    def __post_init__(self):
        if not paths_disjoint(self.p, self.q):
            raise ValueError("paths in a PathPair must be vertex-disjoint")


@dataclass(frozen=True)
class PathFamilySpec:
    """Parameters of the family L(p, q, t, u)."""

    p: int
    q: int
    t: int
    u: int


@lru_cache(maxsize=None)
def _step_words(dx: int, dy: int) -> tuple:
    """All words with dx E's and dy N's, lexicographic."""
    if dx < 0 or dy < 0:
        return ()
    if dx == 0:
        return ("N" * dy,)
    if dy == 0:
        return ("E" * dx,)
    return tuple("E" + w for w in _step_words(dx - 1, dy)) + tuple(
        "N" + w for w in _step_words(dx, dy - 1)
    )


def enumerate_paths(start: tuple, end: tuple) -> list:
    """All monotone NE-paths from start to end (empty if unreachable)."""
    dx = end[0] - start[0]
    dy = end[1] - start[1]
    return [LatticePath(start, w) for w in _step_words(dx, dy)]


@lru_cache(maxsize=None)
def _paths_with_vertex_sets(start: tuple, end: tuple) -> tuple:
    return tuple(
        (path, frozenset(path.vertices())) for path in enumerate_paths(start, end)
    )


def _family_endpoints(spec: PathFamilySpec):
    return (
        ((0, -spec.p), (spec.t, -spec.t)),
        ((0, -spec.q), (spec.u, -spec.u)),
    )


def enumerate_disjoint_pairs(spec: PathFamilySpec) -> list:
    """All of L(p, q, t, u) by exhaustive pairing."""
    (p_start, p_end), (q_start, q_end) = _family_endpoints(spec)
    out = []
    for p_path, p_verts in _paths_with_vertex_sets(p_start, p_end):
        for q_path, q_verts in _paths_with_vertex_sets(q_start, q_end):
            if not p_verts & q_verts:
                out.append(PathPair(p_path, q_path))
    return out


def count_disjoint_pairs(spec: PathFamilySpec) -> int:
    (p_start, p_end), (q_start, q_end) = _family_endpoints(spec)
    return sum(
        1
        for _, p_verts in _paths_with_vertex_sets(p_start, p_end)
        for _, q_verts in _paths_with_vertex_sets(q_start, q_end)
        if not p_verts & q_verts
    )


def count_crossed_disjoint_pairs(spec: PathFamilySpec) -> int:
    """Disjoint pairs with the connections swapped: P from (0,-p) to the
    (u,-u) endpoint and Q from (0,-q) to (t,-t)."""
    return count_disjoint_pairs(PathFamilySpec(spec.p, spec.q, spec.u, spec.t))


def gv_identity_check(spec: PathFamilySpec) -> bool:
    """Gessel-Viennot: the binomial determinant equals the signed count of
    vertex-disjoint path pairs,

        B(p,q,t,u) = #L(p,q,t,u) - #crossed(p,q,t,u).

    Whenever p <= q and t <= u (the only configuration the minor
    decomposition ever produces) every crossed pair would have to
    intersect, so the crossed term vanishes and the determinant counts
    L(p,q,t,u) outright.
    """
    signed = count_disjoint_pairs(spec) - count_crossed_disjoint_pairs(spec)
    return binom_det(spec.p, spec.q, spec.t, spec.u) == signed


def _classify(pair: PathPair, d: int, a: int, r: int, s: int) -> str:
    """Which construction case applies to a domain pair."""
    sb, rb, at = d - s, d - r, d + 1 - a
    p_start, q_start = pair.p.start, pair.q.start
    if p_start == (0, -a) and q_start == (0, -(a + 1)):
        return CASE_1
    if p_start != (0, -(a + 1)) or q_start != (0, -at):
        raise ValueError(
            f"pair does not belong to the domain for a={a}, r={r}, s={s}, d={d}"
        )
    if pair.q.steps.startswith("E"):
        return CASE_2B
    if pair.p.steps.startswith("N"):
        return CASE_2A
    return CASE_2C


def _factor_2c(pair: PathPair):
    """Split P = E^k N P' and Q = N R E N^v E Q', the two E's being the
    k-th and (k+1)-st occurrences of E in Q.

    When P consists of E steps only (which happens exactly when the P
    endpoints force d - s = a + 1), P' is None and the image construction
    drops the north step that P could not supply.
    """
    p_steps, q_steps = pair.p.steps, pair.q.steps
    k = len(p_steps) - len(p_steps.lstrip("E"))
    p_rest = p_steps[k + 1:] if "N" in p_steps else None
    e_positions = [i for i, c in enumerate(q_steps) if c == "E"]
    if len(e_positions) < k + 1:
        raise ValueError("Q lacks the k-th and (k+1)-st E steps")
    i_k, i_k1 = e_positions[k - 1], e_positions[k]
    r_word = q_steps[1:i_k]
    v = i_k1 - i_k - 1
    q_rest = q_steps[i_k1 + 1:]
    h = r_word.count("N")
    return k, p_rest, r_word, v, q_rest, h


def phi(pair: PathPair, d: int, a: int, r: int, s: int) -> PathPair:
    image, _ = phi_with_case(pair, d, a, r, s)
    return image


def phi_with_case(pair: PathPair, d: int, a: int, r: int, s: int):
    """Apply the injection to a pair in L(a, a+1) or L(a+1, A) and return
    (image pair, case label).  The image lands in L(a, A-1) for case 1 and
    subcase 2a, and in L(A-1, A) for subcases 2b and 2c."""
    check_dim(d)
    if not 0 <= a < delta(d):
        raise ValueError(f"need 0 <= a < delta, got a={a}, d={d}")
    if not 0 <= r < s <= d - 1:
        raise ValueError(f"need 0 <= r < s <= d-1, got r={r}, s={s}")
    at = d + 1 - a
    case = _classify(pair, d, a, r, s)
    if case == CASE_1:
        lift = (at - 1) - (a + 1)
        q_bar = LatticePath((0, -(at - 1)), "N" * lift + pair.q.steps)
        return PathPair(pair.p, q_bar), case
    if case == CASE_2A:
        p_bar = LatticePath((0, -a), pair.p.steps[1:])
        q_bar = LatticePath((0, -(at - 1)), pair.q.steps[1:])
        return PathPair(p_bar, q_bar), case
    if case == CASE_2B:
        lift = (at - 1) - (a + 1)
        p_bar = LatticePath((0, -(at - 1)), "N" * lift + pair.p.steps)
        return PathPair(p_bar, pair.q), case
    k, p_rest, r_word, v, q_rest, h = _factor_2c(pair)
    prefix = at - a - h - 3
    if prefix < 0:
        raise ValueError(
            f"negative north prefix in subcase 2c (a={a}, r={r}, s={s}, d={d})"
        )
    if p_rest is None:
        p_bar_steps = "N" * prefix + "E" + r_word + "N"
    else:
        p_bar_steps = "N" * prefix + "E" + r_word + "NN" + p_rest
    p_bar = LatticePath((0, -(at - 1)), p_bar_steps)
    q_bar = LatticePath((0, -at), "E" * k + "N" * v + "E" + "N" * (h + 1) + q_rest)
    return PathPair(p_bar, q_bar), case


def disjointness_margin_2c(pair: PathPair, d: int, a: int, r: int, s: int) -> int:
    """Vertical gap A - a - h - v - 2 separating the image paths of a
    subcase 2c input at the critical column x = k: the lowest reachable
    image-P point there is (k, -a-h-2) and the highest image-Q point is
    (k, -A+v).  Must be positive."""
    if _classify(pair, d, a, r, s) != CASE_2C:
        raise ValueError("disjointness margin is defined for subcase 2c inputs")
    k, _, _, v, _, h = _factor_2c(pair)
    at = d + 1 - a
    low_p = (k, -a - h - 2)
    high_q = (k, -at + v)
    margin = low_p[1] - high_q[1]
    if margin <= 0:
        raise ValueError(
            f"nonpositive 2c margin {margin} at a={a}, r={r}, s={s}, d={d}"
        )
    return margin


@dataclass(frozen=True)
class PhiReport:
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
        return (
            self.injective
            and self.cases_partition
            and self.membership_ok
            and self.anchors_ok
            and self.counts_consistent
        )


def _in_family(pair: PathPair, p: int, q: int, t: int, u: int) -> bool:
    return (
        pair.p.start == (0, -p)
        and pair.p.end == (t, -t)
        and pair.q.start == (0, -q)
        and pair.q.end == (u, -u)
        and paths_disjoint(pair.p, pair.q)
    )


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

    Failures are collected in the report, never raised.
    """
    check_dim(d)
    dl = delta(d)
    instances = 0
    pairs_checked = 0
    failures = []
    injective = cases_partition = membership_ok = anchors_ok = counts_ok = True
    for a in range(dl):
        at = d + 1 - a
        for r, s in combinations(range(d), 2):
            sb, rb = d - s, d - r
            instances += 1
            domain = enumerate_disjoint_pairs(
                PathFamilySpec(a, a + 1, sb, rb)
            ) + enumerate_disjoint_pairs(PathFamilySpec(a + 1, at, sb, rb))
            images = set()
            for pair in domain:
                pairs_checked += 1
                tag = (a, r, s, pair.p.steps, pair.q.steps)
                try:
                    image, case = phi_with_case(pair, d, a, r, s)
                except ValueError as exc:
                    cases_partition = False
                    failures.append((tag, f"construction failed: {exc}"))
                    continue
                if case in (CASE_1, CASE_2A):
                    ok = _in_family(image, a, at - 1, sb, rb)
                else:
                    ok = _in_family(image, at - 1, at, sb, rb)
                if not ok:
                    membership_ok = False
                    failures.append((tag, f"case {case} image in wrong family"))
                anchor = (0, -(a + 1))
                on_image = anchor in image.p.vertices() or anchor in image.q.vertices()
                if on_image != (case in (CASE_1, CASE_2B)):
                    anchors_ok = False
                    failures.append((tag, f"case {case} anchor invariant broken"))
                key = (image.p.start, image.p.steps, image.q.start, image.q.steps)
                if key in images:
                    injective = False
                    failures.append((tag, "image collision"))
                images.add(key)
            target_total = count_disjoint_pairs(
                PathFamilySpec(a, at - 1, sb, rb)
            ) + count_disjoint_pairs(PathFamilySpec(at - 1, at, sb, rb))
            minor = phi_minor(d, a, a + 1, r, s)
            if target_total - len(domain) != minor or minor < 0:
                counts_ok = False
                failures.append(
                    ((a, r, s), f"count mismatch: {target_total} - {len(domain)} != {minor}")
                )
    return PhiReport(
        d, instances, pairs_checked,
        injective, cases_partition, membership_ok, anchors_ok, counts_ok,
        tuple(failures),
    )
