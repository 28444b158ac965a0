"""Two sha256 digests over the package's answers to fixed corpora.

The library corpus (seeded) covers the transforms, the families, compare
(a failed premise and NoCrossingError included), both bound appliers and
the Macaulay functions.  The engine corpus covers M_d, its minors, the
minor scans, the ratio chains, phi and verify_phi, verify_gv, and the CLI:
stdout, stderr and exit code of `cli.run` on every subcommand, every
verify kind and the error exits.  Each answer is its repr, or the type and
text of the error it raised.  A change meant to keep every answer leaves
both digests as they are.  To print the digests of the code at hand, run

    PYTHONPATH=src python tests/test_same_answers.py

and with --lines, the lines each digest hashes, one per call, so the
answers a change moved show in a diff of two such dumps.
"""

import hashlib
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import fvectors as fv
from fvectors.cli import run
from fvectors.lattice import _family_paths

DIGEST = "255d62da4064c74f964c8d31c804ea688d0705047bc9315e6931c5084877b1e1"
ENGINE_DIGEST = "62f999767afc621bdc374925e1cb7a8c57cef4bc83e5b8ad7a1425837d9630da"


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


def _call_lines(calls):
    for fn, args in calls:
        yield f"{fn.__name__}{args!r} -> {_answer(fn, *args)}\n"


def _digest(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
    return digest.hexdigest()


def corpus_lines(seed=2024):
    return _call_lines(_calls(random.Random(seed)))


def corpus_digest(seed=2024):
    return _digest(corpus_lines(seed))


def _phi_pairs(d):
    """Arguments of phi at d: two domain pairs of each instance, a pair of
    words outside the domain, and an a past delta."""
    for a in range(d // 2):
        for r, s in combinations(range(d), 2):
            for first in (True, False):
                low, high = (a, a + 1) if first else (a + 1, d + 1 - a)
                p_paths, q_paths = _family_paths(fv.PathFamilySpec(low, high, d - s, d - r))
                pairs = [(p, q) for p, pm in p_paths.items() for q, qm in q_paths.items()
                         if not pm & qm]
                for p, q in pairs[:1] + pairs[-1:]:
                    yield first, p, q, d, a, r, s
                yield first, "N" * (d + 9), "E", d, a, r, s
    yield True, "", "", d, d // 2, 0, 1


def _engine_calls():
    """(function, args) pairs of the engine corpus, in a fixed order."""
    for d in (2, 3.0, True, *range(3, 31)):
        yield fv.build_md, (d,)
    for d in range(3, 13):
        for r, s in combinations(range(d), 2):
            for a, b in combinations(range(d // 2 + 1), 2):
                yield fv.phi_minor, (d, a, b, r, s)
    for args in ((2, 0, 1, 0, 1), (5, 0, 3, 0, 1), (5, 1, 1, 0, 1), (5, 0, 1, 2, 5),
                 (5, 0, 1.0, 0, 1)):
        yield fv.phi_minor, args
    for d in range(2, 25):
        yield fv.verify_lemma3, (d,)
        yield fv.verify_ratio_chain, (d,)
    for d, r, s in ((2, 0, 1), (5, 2, 2), (5, 0, 5), (5, -1, 3)):
        yield fv.ratio_chain, (d, r, s)
    for d in range(3, 12):
        for order in (1, 2, 3, "all"):
            yield fv.verify_total_nonnegativity, (d, order)
    for order in (0, "2", 2.0):
        yield fv.verify_total_nonnegativity, (5, order)
    for d in range(2, 9):
        yield fv.verify_phi, (d,)
    for d in range(3, 7):
        for args in _phi_pairs(d):
            yield fv.phi, args
    yield fv.verify_gv, (5,)
    yield fv.verify_gv, (-1,)


GOLDENS = Path(__file__).parent / "goldens"

# every subcommand and verify kind, then the error exits
CLI_RUNS = (
    ("transform", "--d", "4", "--from", "f", "--to", "h", "--vec", "[7,21,28,14]"),
    ("transform", "--d", "4", "--from", "h", "--to", "f",
     "--file", str(GOLDENS / "transform_f_to_h.json")),
    ("transform", "--d", "5", "--from", "g", "--to", "f",
     "--vec", '{"g": [1, 4, "9007199254740993"]}'),
    ("transform", "--d", "3", "--from", "f", "--to", "f", "--vec", "[4,6,4]"),
    ("family", "cyclic", "--d", "6", "--n", "40"),
    ("family", "cs-stacked", "--d", "5", "--n", "9", "--emit", "g"),
    ("check", "m-sequence", "--vec", "[1,3,6,10]"),
    ("check", "M-sequence", "--vec", "[1,3,6,10]"),
    ("check", "M-sequence", "--vec", "[1,40,800,16000,320000,6400000,1000000000]"),
    ("check", "nonnegative", "--vec", "[1,0,-1]"),
    ("check", "dehn-sommerville", "--d", "4", "--vec", "[1,3,6,3,1]"),
    ("compare", "--d", "6", "--g1", "[1,5,2,0]", "--g2", "[1,3,4,1]", "--r", "0"),
    ("bounds", "simplicial", "--d", "12", "--r", "7", "--value", "10" + "0" * 60),
    ("bounds", "cs", "--d", "9", "--r", "2", "--value", "123456"),
    ("verify", "minors", "--d", "8", "--order", "3"),
    ("verify", "minors", "--d", "9"),
    ("verify", "lemma3", "--d", "16"),
    ("verify", "gv", "--max", "3"),
    ("verify", "phi", "--d", "6"),
    ("verify", "ratio-chain", "--d", "12"),
    ("transform", "--d", "3", "--from", "f", "--to", "h", "--vec", "[4,6,"),
    ("transform", "--d", "3", "--from", "f", "--to", "h", "--vec", "[" * 100000),
    ("transform", "--d", "3", "--from", "f", "--to", "h", "--vec", "[" + "1" * 4301 + ",1,1]"),
    ("bounds", "simplicial", "--d", "4", "--r", "1", "--value", "1" * 4301),
    ("transform", "--d", "3", "--from", "f", "--to", "h", "--file", "no_such_file.json"),
    ("transform", "--d", "3", "--from", "g", "--to", "h", "--vec", "[1,2]"),
    ("bounds", "cs", "--d", "6", "--r", "2", "--value", "3"),
    ("compare", "--d", "4", "--g1", "[1,0,1]", "--g2", "[1,2,0]", "--r", "0"),
    ("verify", "minors", "--d", "5", "--order", "x"),
    ("nonsense",),
)


def _cli_answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return f"{out.getvalue()!r} {err.getvalue()!r} exit {code}"


def engine_lines():
    yield from _call_lines(_engine_calls())
    for i, argv in enumerate(CLI_RUNS):  # by index: argv holds a path
        yield f"fvectors run {i} -> {_cli_answer(argv)}\n"


def engine_digest():
    return _digest(engine_lines())


def test_corpus_answers_are_unchanged():
    assert corpus_digest() == DIGEST


def test_engine_and_cli_answers_are_unchanged():
    assert engine_digest() == ENGINE_DIGEST


if __name__ == "__main__":
    if sys.argv[1:] == ["--lines"]:
        sys.stdout.writelines(corpus_lines())
        sys.stdout.writelines(engine_lines())
    else:
        print(corpus_digest())
        print(engine_digest())
