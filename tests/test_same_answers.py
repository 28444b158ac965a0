"""One sha256 over the library layer's answers to a fixed seeded corpus.

The corpus covers the transforms, the families, compare (a failed premise
and NoCrossingError included), both bound appliers and the Macaulay
functions; each answer is its repr, or the type and text of the error it
raised.  A change meant to keep every answer leaves the digest as it is.
To print the digest of the code at hand, run

    PYTHONPATH=src python tests/test_same_answers.py
"""

import hashlib
import random

import fvectors as fv

DIGEST = "255d62da4064c74f964c8d31c804ea688d0705047bc9315e6931c5084877b1e1"


def _answer(fn, *args):
    try:
        return repr(fn(*args))
    except (ValueError, TypeError, ArithmeticError) as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _family_g(*spec):
    return fv.g_of_family(fv.FamilySpec(*spec))


def _family_f(*spec):
    return fv.f_of_family(fv.FamilySpec(*spec))


def _calls(rng):
    """(function, args) pairs of the corpus, in a fixed order."""
    for d in range(3, 21):
        dl = d // 2
        for _ in range(6):
            f = tuple(rng.randint(0, 10**rng.randint(1, 12)) for _ in range(d))
            yield fv.f_to_h, (fv.FVector(d, f),)
            yield fv.f_to_g, (fv.FVector(d, f),)
            g = (1,) + tuple(rng.randint(-50, 10**rng.randint(1, 9)) for _ in range(dl))
            yield fv.g_to_f, (fv.GVector(d, g),)
            yield fv.f_from_g, (d, g)
            h = (1,) + tuple(rng.randint(-9**rng.randint(0, 3), 10**rng.randint(1, 6))
                             for _ in range(d))
            yield fv.h_to_f, (fv.HVector(d, h),)
            yield fv.h_to_g, (fv.HVector(d, h),)
            yield fv.is_dehn_sommerville, (fv.HVector(d, h),)
        # wrong length, bad entries and bad dimensions
        yield fv.FVector, (d, (1,) * (d - 1))
        yield fv.FVector, (d, (1, -1) + (1,) * (d - 2))
        yield fv.GVector, (d, (2,) + (0,) * dl)
        yield fv.HVector, (d, (1, 2.0) + (1,) * (d - 1))
        yield fv.GVector, (d, (1, True) + (0,) * (dl - 1))
        yield fv.f_from_g, (d, (1,) * (dl + 2))
        for family in (fv.CYCLIC, fv.STACKED, fv.CS_STACKED):
            for n in (d - 1, d, d + 1, d + 2, rng.randint(d + 3, 10**6)):
                yield _family_g, (family, n, d)
                yield _family_f, (family, n, d)
        yield fv.stanley_cs_floor, (d,)
        for _ in range(8):
            gamma = (1,) + tuple(rng.randint(-20, 400) for _ in range(dl))
            t = rng.randint(0, dl)
            crossing = (1,) + tuple(
                x + (rng.randint(0, 60) if i <= t else -rng.randint(0, 60))
                for i, x in enumerate(gamma[1:], 1))
            scrambled = (1,) + tuple(x + rng.randint(-60, 60) for x in gamma[1:])
            for other in (crossing, scrambled):
                for r in (0, rng.randint(0, d - 2), d - 2, d - 1):
                    yield fv.compare, (fv.GVector(d, other), fv.GVector(d, gamma), r)
                    yield fv.compare, (fv.GVector(d, gamma), fv.GVector(d, other), r)
        yield fv.find_crossing, (fv.GVector(d, (1,) * (dl + 1)), fv.GVector(d + 2, (1,) * (dl + 2)))
        for r in range(d - 1):
            for value in (1, d, 2 * d + 1, rng.randint(1, 10**4), 10**rng.randint(5, 40)):
                yield fv.sandwich_simplicial, (d, r, value)
                yield fv.lower_bound_cs, (d, r, value)
        yield fv.sandwich_simplicial, (d, d - 1, 10**6)
        yield fv.lower_bound_cs, (d, 0, 10.0**6)
    for _ in range(300):
        n, k = rng.randint(-1, 10**rng.randint(1, 30)), rng.randint(-1, 12)
        yield fv.macaulay_expand, (n, k)
        yield fv.del_k, (n, k)
    for _ in range(300):
        seq = [1] + [rng.randint(-1, 10**rng.randint(0, 6)) for _ in range(rng.randint(0, 7))]
        yield fv.is_m_sequence_upper, (seq,)
        yield fv.is_M_sequence, (seq,)
        yield fv.is_nonnegative, (seq,)
    for seq in ([], [0, 1], [1, 1.5], (1, 3, 3, 1)):
        yield fv.is_m_sequence_upper, (seq,)
        yield fv.is_M_sequence, (seq,)


def corpus_digest(seed=2024):
    digest = hashlib.sha256()
    for fn, args in _calls(random.Random(seed)):
        digest.update(f"{fn.__name__}{args!r} -> {_answer(fn, *args)}\n".encode())
    return digest.hexdigest()


def test_corpus_answers_are_unchanged():
    assert corpus_digest() == DIGEST


if __name__ == "__main__":
    print(corpus_digest())
