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

import json
import re
import sys
from operator import attrgetter
from types import SimpleNamespace

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
    A report prints its fields in declared order.  A top-level None is left
    out; a None nested deeper prints as null."""
    sys.set_int_max_str_digits(0)  # run() restores the cap
    print(json.dumps({key: value for key, value in _jsonable(doc).items() if value is not None}))
    return code


class _DigitCapError(ValueError):
    """An integer past the cap: its text is the error, in options and JSON alike."""


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
    if args.vec is not None and args.file is not None:
        raise ValueError("a vector is given once (--vec or --file, not both)")
    if args.file is not None:
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
    src, dst = vars(args)["from"], args.to
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


def _verify(run_kind, passes=lambda report: not report.failures):
    """A verify kind's handler: its run on the parsed arguments, then its report's pass test."""
    def _cmd_verify(args):
        report = run_kind(args)
        return _emit(report, EXIT_OK if passes(report) else EXIT_FAIL)
    return _cmd_verify


def integer(text: str) -> int:
    """An integer option (`_is_int_text`); past _MAX_DIGITS digits the error names the cap."""
    if not _is_int_text(_capped(text)):
        raise ValueError(text)  # _convert reports: invalid integer value: 'text'
    return int(text)


def order(text: str):
    """The --order of verify minors: all, or an integer option."""
    return text if text == "all" else integer(text)


_REQUIRED = object()  # the default of an option that must be given
_HELP = ("-h", "--help")
_FHG = ("f", "h", "g")

_VEC = {"--vec": (None, None), "--file": (None, None)}
_VERIFY_D = {"--d": (integer, 10)}

# each subcommand: its handler and options, or a table of its kinds, each its
# handler and options; an option -> (a conversion, choices or None for the text
# as is; the default or _REQUIRED); --d's value is args.d, a kind's args.which
_COMMANDS = {
    "transform": (_cmd_transform, {
        "--d": (integer, _REQUIRED), "--from": (_FHG, _REQUIRED), "--to": (_FHG, _REQUIRED),
        **_VEC}),
    "family": dict.fromkeys(("cyclic", "stacked", "cs-stacked"), (_cmd_family, {
        "--d": (integer, _REQUIRED), "--n": (integer, _REQUIRED), "--emit": (("f", "g"), "f")})),
    "check": {
        **dict.fromkeys(("m-sequence", "M-sequence", "nonnegative"), (_cmd_check, _VEC)),
        "dehn-sommerville": (_cmd_check, {"--d": (integer, _REQUIRED), **_VEC})},
    "compare": (_cmd_compare, {
        "--d": (integer, _REQUIRED), "--g1": (None, _REQUIRED), "--g2": (None, _REQUIRED),
        "--r": (integer, _REQUIRED)}),
    "bounds": dict.fromkeys(("simplicial", "cs"), (_cmd_bounds, {
        "--d": (integer, _REQUIRED), "--r": (integer, _REQUIRED),
        "--value": (integer, _REQUIRED)})),
    "verify": {
        "minors": (_verify(lambda a: verify_total_nonnegativity(a.d, a.order),
                           attrgetter("all_nonnegative")),
                   {**_VERIFY_D, "--order": (order, "all")}),
        "lemma3": (_verify(lambda a: verify_lemma3(a.d), attrgetter("all_nonnegative")), _VERIFY_D),
        "gv": (_verify(lambda a: verify_gv(a.max)), {"--max": (integer, 6)}),
        "phi": (_verify(lambda a: verify_phi(a.d), attrgetter("all_ok")), _VERIFY_D),
        "ratio-chain": (_verify(lambda a: verify_ratio_chain(a.d)), _VERIFY_D)},
}

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _read(token, names):
    """How argparse reads an argv token against option names: None for a
    value, else (the option, None if unknown, and its glued value or None)."""
    if not token.startswith("-") or len(token) < 2:
        return None
    head, eq, glued = token.partition("=")
    glued = glued if eq else None
    if head in names:
        return head, glued
    if token[1] == "-":  # a unique prefix of a long option
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise ValueError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], glued
    elif token.startswith("-h"):
        return "-h", token[2:]
    return None if _NEGATIVE_NUMBER(token) or " " in token else (None, None)


def _convert(label, conversion, text):
    """text as argument label's value, with argparse's error texts."""
    if not callable(conversion):
        if conversion is None or text in conversion:
            return text
        choices = ", ".join(map(repr, conversion))
        raise ValueError(f"argument {label}: invalid choice: {text!r} (choose from {choices})")
    try:
        return conversion(text)
    except ValueError as exc:  # the digit cap's text stands as is
        error = exc if isinstance(exc, _DigitCapError) else (
            f"invalid {conversion.__name__} value: {text!r}")
        raise ValueError(f"argument {label}: {error}") from None


def _help(option, glued, path):
    """-h/--help, which takes no value: -hh is -h, -hx an error."""
    rest = glued.lstrip("h") if option == "-h" and glued else glued
    if glued is not None and (rest or not glued):
        raise ValueError(f"argument -h/--help: ignored explicit argument {rest!r}")
    return _usage, path


def _usage(path):
    """Print the usage of each kind under path, () or a command or a command and a kind."""
    print("usage: fvectors {" + ",".join(_COMMANDS) + "} ..." if not path else "usage:")
    for command, entry in _COMMANDS.items():
        for kind, (_, options) in entry.items() if isinstance(entry, dict) else [(None, entry)]:
            words = (command, kind) if kind else (command,)
            if words[:len(path)] != path:
                continue
            words = ["  fvectors", *words]
            for option, (conversion, default) in options.items():
                value = "{" + ",".join(conversion) + "}" if isinstance(conversion, tuple) else None
                word = f"{option} {value or option[2:].upper()}"
                words.append(word if default is _REQUIRED else f"[{word}]")
            print(" ".join(words))
    return EXIT_OK


def _parse(argv, table=_COMMANDS, path=(), extras=()):
    """The handler and arguments of argv, read in one left-to-right pass as
    argparse read it: the same values, and its errors in its order.  table
    holds the subcommands, or the kinds of the command path, which the
    unknown arguments in extras came before."""
    i = 0
    while i < len(argv) and argv[i] != "--" and (read := _read(argv[i], _HELP)):
        if read[0]:
            return _help(*read, path)
        i += 1  # an unknown option before the subcommand or kind
    label = "which" if path else "command"
    if argv[i:] in ([], ["--"]):
        raise ValueError(f"the following arguments are required: {label}")
    name = _convert(label, table, argv[i])
    args, extras, entry = argv[i + 1:], [*extras, *argv[:i]], table[name]
    if isinstance(entry, dict):
        return _parse(args, entry, (name,), extras)
    handler, options = entry
    names = (*_HELP, *options)
    sep = args.index("--") if "--" in args else len(args)  # unknown from it on
    reads = [_read(token, names) for token in args[:sep]]
    values = {"which": name} if path else {}
    values.update((option, default) for option, (_, default) in options.items())
    k = 0
    while k < sep:
        token, read, k = args[k], reads[k], k + 1
        if read is None or read[0] is None:
            extras.append(token)
        elif read[0] in _HELP:
            return _help(*read, (*path, name))
        else:
            option, glued = read
            if glued is None:
                if k == sep or reads[k]:
                    raise ValueError(f"argument {option}: expected one argument")
                glued, k = args[k], k + 1
            values[option] = _convert(option, options[option][0], glued)
    if missing := [label for label, value in values.items() if value is _REQUIRED]:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras := extras + args[sep:]:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return handler, SimpleNamespace(**{label.strip("-"): v for label, v in values.items()})


def run(argv) -> int:
    cap = sys.get_int_max_str_digits()
    try:
        func, args = _parse(list(argv))
        return func(args)
    except (ValueError, OSError, MemoryError) as exc:  # JSONDecodeError is a ValueError
        message = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        print(json.dumps({"error": message}))
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(cap)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
