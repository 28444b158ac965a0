"""f-vector / h-vector / g-vector data model and the conversions among them.

For a (d-1)-dimensional simplicial complex the f-vector lists face counts
(f_0, ..., f_{d-1}) with the implicit f_{-1} = 1.  The h-vector is the
linear transform defined by

    sum_i f_{i-1} x^{d-i}  =  sum_i h_i (x+1)^{d-i}

and the g-vector is g_0 = 1, g_i = h_i - h_{i-1} for 1 <= i <= delta(d).
When the Dehn-Sommerville equations h_i = h_{d-i} hold (homology spheres),
the whole f-vector is recovered from the g-vector, with no table, by prefix
sums (h), the mirror h_{d-i} = h_i and the h -> f passes.  That map is the
row-vector / matrix product f = g * M_d, where M_d is the (delta+1) x d
integer matrix with entries

    m[i][j] = C(d+1-i, d-j) - C(i, d-j).
"""

from functools import lru_cache
from itertools import accumulate
from operator import sub

from .exact import binomial, int_entries

MIN_DIM = 3


def delta(d: int) -> int:
    """delta = floor(d/2), the last meaningful g-index."""
    return d // 2


def check_dim(d: int) -> None:
    if type(d) is not int:  # skips the general check on the hot path
        int_entries((d,), "parameters")
    if d < MIN_DIM:
        raise ValueError(f"dimension d must be >= {MIN_DIM}, got {d}")


def check_rs(d: int, r: int, s: int, *more: int) -> None:
    """A valid d, integers r, s and more, and a column pair 0 <= r < s <= d-1."""
    check_dim(d)
    int_entries((r, s, *more), "parameters")
    if not 0 <= r < s <= d - 1:
        raise ValueError(f"need 0 <= r < s <= d-1, got r={r}, s={s}")


def wrong_class(cls, value) -> ValueError:
    """The error for an argument that is not a cls, naming the class needed."""
    return ValueError(f"expected {cls.__name__}, got {type(value).__name__}")


class _Vector:
    """Entries of an f-, h- or g-vector for dimension d.

    A subclass states its length `size(d)` and its entry rule: the head
    entry is 1 when `head_is_one`, and every entry is nonnegative when not.
    The letter in error messages is the first letter of the class name.
    Instances are immutable and equal only to the same class's.
    """

    __slots__ = ("d", "entries")

    def __init__(self, d: int, entries):
        check_dim(d)
        entries = int_entries(entries)
        size = self.size(d)
        if len(entries) != size:
            raise ValueError(f"{self._name()}-vector for d={d} needs {size} entries")
        if self.head_is_one:
            if entries[0] != 1:
                name = self._name()
                raise ValueError(f"{name}-vector must start with {name}_0 = 1")
        elif min(entries) < 0:
            raise ValueError(f"{self._name()}-vector entries must be nonnegative")
        _set_d(self, d)
        _set_entries(self, entries)

    @classmethod
    def _of(cls, d: int, entries):
        """The vector of the library's own output: ints of the right length,
        head 1 where needed, by construction; only an f-vector's sign is checked."""
        if not cls.head_is_one and min(entries) < 0:
            raise ValueError(f"{cls._name()}-vector entries must be nonnegative")
        v = object.__new__(cls)
        _set_d(v, d)
        _set_entries(v, tuple(entries))
        return v

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.d == other.d and self.entries == other.entries

    def __hash__(self):
        return hash((self.d, self.entries))

    def __repr__(self):
        return f"{type(self).__name__}(d={self.d!r}, entries={self.entries!r})"

    def __reduce__(self):
        return type(self), (self.d, self.entries)

    @classmethod
    def _name(cls) -> str:
        return cls.__name__[0].lower()

    def __getitem__(self, i):
        return self.entries[i]


_set_d, _set_entries = _Vector.d.__set__, _Vector.entries.__set__


class FVector(_Vector):
    """Face-count vector (f_0, ..., f_{d-1}); f_{-1} = 1 is implicit."""

    __slots__ = ()
    size = staticmethod(lambda d: d)
    head_is_one = False


class HVector(_Vector):
    """h-vector (h_0, ..., h_d) with h_0 = 1."""

    __slots__ = ()
    size = staticmethod(lambda d: d + 1)
    head_is_one = True


class GVector(_Vector):
    """g-vector (g_0, ..., g_delta) with g_0 = 1.

    Entries beyond g_0 are arbitrary integers: the comparison machinery is
    purely linear-algebraic and accepts any int, negative ones included.
    Validity tests (nonnegativity, M-sequence) live in the macaulay module
    and are applied only where a caller asks for them.
    """

    __slots__ = ()
    size = staticmethod(lambda d: delta(d) + 1)
    head_is_one = True


def md_entry(d: int, i: int, j: int) -> int:
    """Entry m[i][j] of M_d, for 0 <= i <= delta and 0 <= j <= d-1."""
    check_dim(d)
    int_entries((i, j), "parameters")
    if not (0 <= i <= delta(d) and 0 <= j <= d - 1):
        raise ValueError(f"need 0 <= i <= delta and 0 <= j <= d-1, got i={i}, j={j}")
    return _md_column(d, j)[i]


@lru_cache(maxsize=None)
def _md_column(d: int, j: int) -> tuple:
    """Column j of M_d, m[i][j] = C(d+1-i, d-j) - C(i, d-j) for
    0 <= i <= delta: the one stored copy of M_d, for a valid d and 0 <= j < d."""
    return tuple(binomial(d + 1 - i, d - j) - binomial(i, d - j) for i in range(delta(d) + 1))


def build_md(d: int):
    """The (delta+1) x d matrix M_d as a tuple of row tuples."""
    check_dim(d)
    return tuple(zip(*(_md_column(d, j) for j in range(d))))


def _shift_up(a, first: int = 1) -> list:
    """The h -> f passes on a = [h_0, ..., h_d], synthetic division by y-1 with
    y = x+1: the one ending at j = d, d-1, ... takes a[0..j] to its prefix sums
    (linear in a), leaving a[j] = f_{j-1}; returns those for j >= first."""
    tail = []
    for _ in range(len(a) - first):
        *a, last = accumulate(a)
        tail.append(last)
    return tail[::-1]


def _f_tail(d: int, g, first: int = 1) -> list:
    """f_{first-1}, ..., f_{d-1} of g * M_d, unchecked: h, its mirror, the h -> f passes."""
    h = list(accumulate(g))
    return _shift_up(h + h[d - len(h)::-1], first)


def f_from_g(d: int, g) -> tuple:
    """Raw row-vector product g * M_d on a plain integer sequence."""
    check_dim(d)
    g = int_entries(g)
    if len(g) != delta(d) + 1:
        raise ValueError("g sequence has wrong length for g * M_d")
    return tuple(_f_tail(d, g))


def g_to_f(g: GVector) -> FVector:
    """f = g * M_d (valid when g came from a Dehn-Sommerville h-vector)."""
    if type(g) is not GVector:
        raise wrong_class(GVector, g)
    return FVector._of(g.d, _f_tail(g.d, g.entries))


def f_to_h(f: FVector) -> HVector:
    """Invert the defining polynomial identity:

    h_k = sum_{i=0}^{k} (-1)^{k-i} C(d-i, k-i) f_{i-1},  with f_{-1} = 1.

    Synthetic division by x+1, repeated on each quotient, turns the
    coefficients of sum f_{i-1} x^{d-i} into those in powers of x+1.
    """
    if type(f) is not FVector:
        raise wrong_class(FVector, f)
    a = [1, *f.entries]
    for top in range(f.d, 0, -1):
        s = 1
        for j in range(1, top + 1):
            s = a[j] = a[j] - s
    return HVector._of(f.d, a)


def h_to_f(h: HVector) -> FVector:
    """f_{i-1} = sum_{k=0}^{i} C(d-k, i-k) h_k for i = 1, ..., d: the h -> f passes."""
    if type(h) is not HVector:
        raise wrong_class(HVector, h)
    return FVector._of(h.d, _shift_up(h.entries))


def h_to_g(h: HVector) -> GVector:
    """g_0 = 1, g_i = h_i - h_{i-1} for 1 <= i <= delta."""
    if type(h) is not HVector:
        raise wrong_class(HVector, h)
    return GVector._of(h.d, (1, *map(sub, h.entries[1:delta(h.d) + 1], h.entries)))


def f_to_g(f: FVector) -> GVector:
    """Composition h_to_g(f_to_h(f)).

    Total on any f-vector; the truncation at delta loses information
    unless the underlying h-vector is palindromic, which the caller can
    check with is_dehn_sommerville.
    """
    return h_to_g(f_to_h(f))


def is_dehn_sommerville(h: HVector) -> bool:
    """True iff h_i = h_{d-i} for all i (palindromic h-vector)."""
    if type(h) is not HVector:
        raise wrong_class(HVector, h)
    return h.entries == h.entries[::-1]
