"""JSON command-line frontend.

Subcommands: transform, family, check, compare, bounds, verify.  Every
invocation prints a single JSON document on stdout; human-readable
diagnostics go to stderr.  Exit codes: 0 = success / property holds,
1 = check failed or counterexample found, 2 = usage or validation error.

Integers whose magnitude exceeds 2**53 - 1 are emitted as decimal strings
so that lossy JSON consumers cannot corrupt them.  Input integers of more
than 4,300 digits, CPython's default int <-> str cap, are refused, in
options and JSON alike, with one error text.
"""

import argparse
import json
import sys
from functools import lru_cache
from operator import attrgetter

from . import (
    FVector, HVector, GVector,
    f_to_h, h_to_f, h_to_g, g_to_f, f_to_g,
    is_dehn_sommerville,
    FamilySpec, g_of_family, f_of_family,
    is_m_sequence_upper, is_nonnegative,
    compare, sandwich_simplicial, lower_bound_cs, verify_ratio_chain,
    verify_lemma3, verify_total_nonnegativity, verify_phi, verify_gv,
)
from .macaulay import _first_violation

_SAFE_MAX = 2**53 - 1
_MAX_DIGITS = sys.int_info.default_max_str_digits  # 4300

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _jsonable(obj):
    """Recursively convert to JSON-safe values, stringifying big ints."""
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a report record
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if type(obj) is int and abs(obj) > _SAFE_MAX:
        return str(obj)
    return obj


def _emit(doc, code):
    """Print doc, a dict or a report, as one JSON document; return code.
    A report prints its fields in declared order, leaving out a field that
    is None; a None nested deeper prints as null."""
    if hasattr(doc, "_asdict"):
        doc = {name: value for name, value in doc._asdict().items() if value is not None}
    sys.set_int_max_str_digits(0)  # run() restores the cap
    print(json.dumps(_jsonable(doc)))
    return code


class _DigitCapError(argparse.ArgumentTypeError, ValueError):
    """An integer past the cap: argparse prints its text as is, run() too."""


def _capped(text: str) -> str:
    """text, unless it holds more than _MAX_DIGITS digits: the one check of
    the cap, whose error CPython words as advice for a Python session."""
    if len(text) > _MAX_DIGITS and (n := sum(map(str.isdigit, text))) > _MAX_DIGITS:
        raise _DigitCapError(f"integers have at most {_MAX_DIGITS} digits, got {n}")
    return text


_CAPPED_JSON = json.JSONDecoder(parse_int=lambda text: int(_capped(text)))


def _loads(text: str):
    """The JSON value of text, with nesting too deep for its parser, and an
    integer past the cap, as a ValueError of their own."""
    try:
        return _CAPPED_JSON.decode(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _parse_vec(args) -> list:
    if args.file:
        with open(args.file) as fh:
            payload = _loads(fh.read())
    else:
        if args.vec is None:
            raise ValueError("a vector is required (--vec or --file)")
        payload = _loads(args.vec)
    if isinstance(payload, dict):
        for key in ("f", "h", "g", "vec"):
            if key in payload:
                payload = payload[key]
                break
        else:
            raise ValueError("JSON object payload must carry an f/h/g/vec field")
    return _int_list(payload)


def _is_int_text(text: str) -> bool:
    """An optional - then ASCII digits: the one form of integer text."""
    return text.isascii() and text.removeprefix("-").isdigit()


def _int_list(payload) -> list:
    """The entries of a JSON array, each a JSON integer or a decimal-integer
    string (the form big integers are emitted in); nothing is truncated."""
    if not isinstance(payload, list):
        raise ValueError("vector payload must be a JSON array")
    out = []
    for x in payload:
        if isinstance(x, int) and not isinstance(x, bool):
            out.append(x)
        elif isinstance(x, str) and _is_int_text(x):
            out.append(int(_capped(x)))
        else:
            raise ValueError(f"vector entries must be integers, got {json.dumps(x)}")
    return out


_VEC_TYPES = {"f": FVector, "h": HVector, "g": GVector}

_TRANSFORMS = {
    ("f", "h"): f_to_h,
    ("f", "g"): f_to_g,
    ("h", "f"): h_to_f,
    ("h", "g"): h_to_g,
    ("g", "f"): g_to_f,
}


def _cmd_transform(args):
    src, dst = args.src, args.to
    if (src, dst) == ("g", "h"):
        raise ValueError("g-to-h is not invertible; convert g to f instead")
    vec = _VEC_TYPES[src](args.d, _parse_vec(args))
    out = vec if src == dst else _TRANSFORMS[(src, dst)](vec)
    return _emit({"d": args.d, dst: list(out.entries)}, EXIT_OK)


def _cmd_family(args):
    family = args.which.replace("-", "_")
    spec = FamilySpec(family, args.n, args.d)
    out = g_of_family(spec) if args.emit == "g" else f_of_family(spec)
    return _emit({"d": args.d, args.emit: list(out.entries)}, EXIT_OK)


def _cmd_check(args):
    vec = _parse_vec(args)
    kind, doc = args.which, {}
    if kind == "dehn-sommerville":
        if args.d is None:
            raise ValueError("check dehn-sommerville requires --d")
        result = is_dehn_sommerville(HVector(args.d, vec))
    elif kind == "nonnegative":
        result = is_nonnegative(vec)
    elif kind == "m-sequence":
        result = is_m_sequence_upper(vec)
    else:  # M-sequence: one walk gives the answer and its witness
        violation = _first_violation(vec)
        result = violation is None
        if violation:
            k, cut = violation
            doc["witness"] = {"k": k, "del": cut, "bound": vec[k - 1]}
    return _emit({"result": result, **doc}, EXIT_OK if result else EXIT_FAIL)


def _cmd_compare(args):
    g1 = GVector(args.d, _int_list(_loads(args.g1)))
    g2 = GVector(args.d, _int_list(_loads(args.g2)))
    report = compare(g1, g2, args.r)
    ok = report.premise_holds and all(
        c.bound_holds for c in report.conclusions.values()
    )
    return _emit(report, EXIT_OK if ok else EXIT_FAIL)


def _cmd_bounds(args):
    bound = sandwich_simplicial if args.which == "simplicial" else lower_bound_cs
    return _emit(bound(args.d, args.r, args.value), EXIT_OK)


def _no_failures(report) -> bool:
    return not report.failures


# each verify kind: (its run on the parsed arguments, its report's pass test)
_VERIFY = {
    "minors": (
        lambda a: verify_total_nonnegativity(a.d, a.order),
        attrgetter("all_nonnegative"),
    ),
    "lemma3": (lambda a: verify_lemma3(a.d), attrgetter("all_nonnegative")),
    "gv": (lambda a: verify_gv(a.max), _no_failures),
    "phi": (lambda a: verify_phi(a.d), attrgetter("all_ok")),
    "ratio-chain": (lambda a: verify_ratio_chain(a.d), _no_failures),
}


def _cmd_verify(args):
    run_kind, passes = _VERIFY[args.which]
    report = run_kind(args)
    return _emit(report, EXIT_OK if passes(report) else EXIT_FAIL)


def integer(text: str) -> int:
    """An integer option (`_is_int_text`); past _MAX_DIGITS digits the error names the cap."""
    if not _is_int_text(_capped(text)):
        raise ValueError(text)  # argparse reports: invalid integer value: 'text'
    return int(text)


def order(text: str):
    """The --order of verify minors: all, or an integer option."""
    return text if text == "all" else integer(text)


class _Parser(argparse.ArgumentParser):
    # argparse would print usage to stderr and exit 2 with nothing on
    # stdout; raising lets run() report bad usage as a JSON error like any
    # other bad input.  Subparsers inherit this class.
    def error(self, message):
        raise ValueError(message)


@lru_cache(maxsize=None)  # built on first use, then shared by every run
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fvectors",
        description="Exact f/h/g-vector transforms, extremal-family bounds, "
        "and combinatorial verifications for simplicial polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="convert between f/h/g vectors")
    p.add_argument("--d", type=integer, required=True)
    p.add_argument("--from", dest="src", choices=["f", "h", "g"], required=True)
    p.add_argument("--to", choices=["f", "h", "g"], required=True)
    p.add_argument("--vec")
    p.add_argument("--file")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("family", help="f/g-vector of an extremal family member")
    p.add_argument("which", choices=["cyclic", "stacked", "cs-stacked"])
    p.add_argument("--d", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--emit", choices=["f", "g"], default="f")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("check", help="sequence predicates")
    p.add_argument(
        "which",
        choices=["m-sequence", "M-sequence", "nonnegative", "dehn-sommerville"],
    )
    p.add_argument("--d", type=integer, default=None)
    p.add_argument("--vec")
    p.add_argument("--file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("compare", help="comparison theorem on two g-vectors")
    p.add_argument("--d", type=integer, required=True)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--r", type=integer, required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bounds", help="family sandwich bounds from one face count")
    p.add_argument("which", choices=["simplicial", "cs"])
    p.add_argument("--d", type=integer, required=True)
    p.add_argument("--r", type=integer, required=True)
    p.add_argument("--value", type=integer, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="exhaustive verification suites")
    p.add_argument("which", choices=list(_VERIFY))
    p.add_argument("--d", type=integer, default=10)
    p.add_argument("--order", type=order, default="all")
    p.add_argument("--max", type=integer, default=6)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv) -> int:
    parser = build_parser()
    cap = sys.get_int_max_str_digits()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # only --help exits from argparse; bad usage raises ValueError
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(json.dumps({"error": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(cap)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
