import ast
import io
import json
import shlex
import sys
from contextlib import redirect_stdout
from itertools import takewhile
from pathlib import Path

import pytest

from fvectors import cli, comparison, lattice, macaulay, sandwich_simplicial
from fvectors.cli import run, EXIT_OK, EXIT_FAIL, EXIT_USAGE
from fvectors.families import FamilySpec, CYCLIC, f_of_family
from fvectors.transforms import FVector, f_to_g

from deadline import timed
from oracles import build_parser
from test_same_answers import CLI_RUNS


FAMILIES = "(choose from 'cyclic', 'stacked', 'cs-stacked')"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_family_matches_library(capsys):
    code, doc = invoke(capsys, "family", "cyclic", "--d", "4", "--n", "7")
    assert code == EXIT_OK
    assert doc == {"d": 4, "f": [7, 21, 28, 14]}
    assert tuple(doc["f"]) == f_of_family(FamilySpec(CYCLIC, 7, 4)).entries


def test_family_emit_g(capsys):
    code, doc = invoke(capsys, "family", "cs-stacked", "--d", "4", "--n", "5",
                       "--emit", "g")
    assert code == EXIT_OK
    assert doc == {"d": 4, "g": [1, 5, 2]}


def test_transform_matches_library(capsys):
    code, doc = invoke(capsys, "transform", "--d", "3", "--from", "f",
                       "--to", "g", "--vec", "[6,12,8]")
    assert code == EXIT_OK
    assert tuple(doc["g"]) == f_to_g(FVector(3, (6, 12, 8))).entries


def test_transform_roundtrip(capsys):
    _, doc = invoke(capsys, "transform", "--d", "4", "--from", "f",
                    "--to", "h", "--vec", "[7,21,28,14]")
    assert doc == {"d": 4, "h": [1, 3, 6, 3, 1]}
    _, doc = invoke(capsys, "transform", "--d", "4", "--from", "h",
                    "--to", "f", "--vec", "[1,3,6,3,1]")
    assert doc == {"d": 4, "f": [7, 21, 28, 14]}


def test_check_M_sequence_failure_witness(capsys):
    code, doc = invoke(capsys, "check", "M-sequence", "--vec", "[1,1,2]")
    assert code == EXIT_FAIL
    assert doc == {"result": False, "witness": {"k": 2, "del": 2, "bound": 1}}


def test_check_M_sequence_walks_once(capsys, monkeypatch):
    ks = []
    real = macaulay.del_k
    monkeypatch.setattr(macaulay, "del_k", lambda n, k: ks.append(k) or real(n, k))
    code, doc = invoke(capsys, "check", "M-sequence",
                       "--vec", "[1,40,800,16000,320000,6400000,1000000000]")
    assert code == EXIT_FAIL
    assert doc == {"result": False, "witness": {"k": 3, "del": 1030, "bound": 800}}
    assert ks == [2, 3]


def test_check_pass_paths(capsys):
    code, doc = invoke(capsys, "check", "m-sequence", "--vec", "[1,2,3,5]")
    assert code == EXIT_OK and doc["result"] is True
    code, doc = invoke(capsys, "check", "nonnegative", "--vec", "[1,0,2]")
    assert code == EXIT_OK and doc["result"] is True
    code, doc = invoke(capsys, "check", "dehn-sommerville", "--d", "3",
                       "--vec", "[1,3,3,1]")
    assert code == EXIT_OK and doc["result"] is True


def test_check_file_payload(tmp_path, capsys):
    payload = tmp_path / "vec.json"
    payload.write_text(json.dumps({"d": 4, "g": [1, 2, 3]}))
    code, doc = invoke(capsys, "transform", "--d", "4", "--from", "g",
                       "--to", "f", "--file", str(payload))
    assert code == EXIT_OK
    assert doc == {"d": 4, "f": [7, 21, 28, 14]}


def test_compare(capsys):
    code, doc = invoke(capsys, "compare", "--d", "3", "--g1", "[1,2]",
                       "--g2", "[1,3]", "--r", "0")
    assert code == EXIT_OK
    assert doc["premise_holds"] is True
    assert doc["conclusions"]["1"] == {"bound_holds": True, "lhs": 12, "rhs": 15}
    assert doc["witness"] == {"t": 0, "diffs": [0, -1]}


def test_compare_premise_fails(capsys):
    code, doc = invoke(capsys, "compare", "--d", "4", "--g1", "[1,2,3]",
                       "--g2", "[1,1,0]", "--r", "0")
    assert code == EXIT_FAIL
    assert doc["premise_holds"] is False


def test_bounds(capsys):
    code, doc = invoke(capsys, "bounds", "simplicial", "--d", "4", "--r", "1",
                       "--value", "21")
    assert code == EXIT_OK
    assert doc["family_params"] == [7, 7]
    assert doc["conclusions"]["2"]["rhs"] == 28
    code, doc = invoke(capsys, "bounds", "cs", "--d", "4", "--r", "0",
                       "--value", "10")
    assert code == EXIT_OK
    assert doc["family_params"] == [5]


def test_verify_gv(capsys):
    code, doc = invoke(capsys, "verify", "gv", "--max", "4")
    assert code == EXIT_OK
    assert doc["failures"] == []
    assert doc["instances"] == 5**4


def test_verify_gv_max_12(capsys):
    assert timed(run, ["verify", "gv", "--max", "12"], seconds=5.0) == EXIT_OK
    assert capsys.readouterr().out == '{"max": 12, "instances": 28561, "failures": []}\n'


def test_verify_phi(capsys):
    code, doc = invoke(capsys, "verify", "phi", "--d", "4")
    assert code == EXIT_OK
    assert doc["injective"] and doc["cases_partition"]


def test_verify_phi_failures_are_structured(monkeypatch, capsys):
    # case 1's Q map, then case 2b's P map, cells of the case table, returns
    # its input word, off the target family; a failed word is [[a, r, s,
    # side, word], reason], with integer a, r, s, tagged by the first
    # instance that holds its side: (a, r, r+1) for Q, (a, 0, s) for P
    planted = {
        ("1", "q_map"): [[[1, 2, 3, "Q", "EE"], "case 1 image in wrong family"]],
        ("2b", "p_map"): [[tag, "case 2b image in wrong family"] for tag in (
            [0, 0, 3, "P", "E"], [1, 0, 2, "P", "EE"], [1, 0, 3, "P", "EN"], [1, 0, 3, "P", "NE"])],
    }
    for (case, cell), failures in planted.items():
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "_CASES", tuple(
                row._replace(**{cell: lambda w, d, a: w}) if row.label == case else row
                for row in lattice._CASES))
            code, doc = invoke(capsys, "verify", "phi", "--d", "4")
        assert code == EXIT_FAIL
        assert doc["failures"] == failures


def test_verify_phi_count_mismatch_is_structured(monkeypatch, capsys):
    # a count mismatch is [[a, r, s], reason]
    real = lattice.count_disjoint_pairs
    monkeypatch.setattr(lattice, "count_disjoint_pairs", lambda spec: real(spec) + 1)
    code, doc = invoke(capsys, "verify", "phi", "--d", "4")
    assert code == EXIT_FAIL
    assert len(doc["failures"]) == doc["instances"] == 12
    assert doc["failures"][0] == [[0, 0, 1], "count mismatch: 12 - 0 != 10"]
    for tag, reason in doc["failures"]:
        assert len(tag) == 3 and all(type(x) is int for x in tag), tag
        assert reason.startswith("count mismatch: ")


def test_verify_gv_failure_exits_1(monkeypatch, capsys):
    real = lattice.gv_identity_check
    planted = lattice.PathFamilySpec(1, 2, 0, 1)
    monkeypatch.setattr(lattice, "gv_identity_check",
                        lambda spec: spec != planted and real(spec))
    code, doc = invoke(capsys, "verify", "gv", "--max", "2")
    assert code == EXIT_FAIL
    assert doc == {"max": 2, "instances": 81, "failures": [[1, 2, 0, 1]]}


def test_verify_ratio_chain_failure_exits_1(monkeypatch, capsys):
    real = comparison.ratio_chain

    def planted(d, r, s):
        chain = real(d, r, s)
        return chain._replace(all_hold=chain.all_hold and (r, s) != (1, 3))

    monkeypatch.setattr(comparison, "ratio_chain", planted)
    code, doc = invoke(capsys, "verify", "ratio-chain", "--d", "5")
    assert code == EXIT_FAIL
    assert doc == {"d": 5, "pairs": 10, "failures": [[1, 3]]}


def test_engine_out_of_memory_is_a_json_error(monkeypatch, capsys):
    # an all-order scan holds two orders' minors, so a large --d can exhaust
    # memory; the engine is replaced, as a real run would allocate gigabytes
    def exhausted(d, max_order):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_total_nonnegativity", exhausted)
    code = run(["verify", "minors", "--d", "22"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert json.loads(captured.out) == {"error": "out of memory"}
    assert captured.err == "error: out of memory\n"


def test_verify_minors(capsys):
    code, doc = invoke(capsys, "verify", "minors", "--d", "5", "--order", "all")
    assert code == EXIT_OK
    assert doc["all_nonnegative"] is True
    code, doc = invoke(capsys, "verify", "minors", "--d", "5", "--order", "2")
    assert code == EXIT_OK and doc["order"] == 2


def test_verify_ratio_chain(capsys):
    code, doc = invoke(capsys, "verify", "ratio-chain", "--d", "8")
    assert code == EXIT_OK
    assert doc["failures"] == []


def test_usage_errors(capsys):
    code, doc = invoke(capsys, "transform", "--d", "3", "--from", "f",
                       "--to", "g", "--vec", "not json")
    assert code == EXIT_USAGE
    assert "error" in doc
    code, doc = invoke(capsys, "transform", "--d", "3", "--from", "f",
                       "--to", "g", "--vec", "[1,2]")  # wrong length
    assert code == EXIT_USAGE
    code, doc = invoke(capsys, "bounds", "simplicial", "--d", "4", "--r", "0",
                       "--value", "3")  # below the simplex floor
    assert code == EXIT_USAGE


def test_unknown_subcommand(capsys):
    code = run(["frobnicate"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_big_integers_emitted_as_strings(capsys):
    vec = json.dumps([10**15] * 12)
    code, doc = invoke(capsys, "transform", "--d", "12", "--from", "f",
                       "--to", "h", "--vec", vec)
    assert code == EXIT_OK
    assert any(isinstance(x, str) for x in doc["h"])
    # stringified values round-trip exactly
    from fvectors.transforms import f_to_h as lib_f_to_h

    expected = lib_f_to_h(FVector(12, [10**15] * 12)).entries
    assert tuple(int(x) for x in doc["h"]) == expected


@pytest.mark.parametrize("argv", [
    # entries that int() used to truncate, read as 1, or crash on
    ["transform", "--d", "4", "--from", "f", "--to", "h", "--vec", "[7.9,21,28,14]"],
    ["compare", "--d", "3", "--g1", "[1,2.5]", "--g2", "[1,3]", "--r", "0"],
    ["compare", "--d", "3", "--g1", "[1,2]", "--g2", "[1,true]", "--r", "0"],
    ["check", "m-sequence", "--vec", "[true,2,3]"],
    ["transform", "--d", "4", "--from", "f", "--to", "h", "--vec", "[[1],2,3,4]"],
    ["transform", "--d", "4", "--from", "f", "--to", "h", "--vec", '["7.0",21,28,14]'],
    # a minor scan of no order ended in a TypeError traceback
    ["verify", "minors", "--d", "5", "--order", "0"],
    # command-line usage errors
    ["family", "cyclic", "--d", "three", "--n", "8"],
    ["family", "cyclic", "--d", "4.5", "--n", "8"],
    ["family", "cyclic", "--d", "1e1", "--n", "8"],
    ["family", "cyclic", "--d", "4"],
    ["frobnicate"],
    [],
    # verify runs that checked nothing and exited 0
    ["verify", "gv", "--max", "-3"],
    ["verify", "gv", "--max", "-1"],
    ["verify", "ratio-chain", "--d", "-5"],
    ["verify", "ratio-chain", "--d", "1"],
    # error paths of the transform, check and bounds commands
    ["transform", "--d", "4", "--from", "g", "--to", "h", "--vec", "[1,2,3]"],
    ["transform", "--d", "4", "--from", "f", "--to", "h"],
    ["transform", "--d", "4", "--from", "f", "--to", "h", "--vec", "5"],
    ["transform", "--d", "4", "--from", "f", "--to", "h", "--vec", '{"x":[1]}'],
    ["check", "dehn-sommerville", "--vec", "[1,3,6,3,1]"],
    ["bounds", "simplicial", "--d", "4", "--r", "3", "--value", "21"],
    ["bounds", "cs", "--d", "4", "--r", "-1", "--value", "21"],
])
def test_malformed_input_is_a_json_error(capsys, argv):
    code, doc = invoke(capsys, *argv)
    assert code == EXIT_USAGE
    assert set(doc) == {"error"}


@pytest.mark.parametrize("argv", [
    ["compare", "--d", "4", "--g1", "[1,2,3]", "--g2", "[1,2,3]", "--r", "3"],
    ["bounds", "simplicial", "--d", "4", "--r", "3", "--value", "21"],
    ["bounds", "cs", "--d", "4", "--r", "3", "--value", "21"],
])
def test_r_out_of_range_message(capsys, argv):
    code, doc = invoke(capsys, *argv)
    assert code == EXIT_USAGE
    assert doc == {"error": "need 0 <= r <= d-2, got r=3, d=4"}


def test_help_exits_zero(capsys):
    # the usage text, built from the command table, goes to stdout alone: a
    # line per kind, after a command its kinds', after a kind its own
    assert run(["--help"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and all(name in out for name in cli._COMMANDS)
    assert run(["family", "--help"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and all(option in out for option in ("--d", "--n", "--emit"))
    assert out.count("fvectors family ") == 3
    assert run(["verify", "gv", "-h"]) == EXIT_OK
    assert capsys.readouterr().out == "usage:\n  fvectors verify gv [--max MAX]\n"


def test_decimal_string_entries_round_trip(capsys):
    # big integers are emitted as decimal strings and read back as such
    _, doc = invoke(capsys, "transform", "--d", "12", "--from", "f",
                    "--to", "h", "--vec", json.dumps([10**15] * 12))
    code, back = invoke(capsys, "transform", "--d", "12", "--from", "h",
                        "--to", "f", "--vec", json.dumps(doc["h"]))
    assert code == EXIT_OK
    assert back["f"] == [10**15] * 12


def _decimal(x):
    """str(x) past the int <-> str cap, which is restored afterwards."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(cap)


def test_output_integers_past_the_digit_cap(capsys):
    # f_3 of the bounds has about 6,000 digits; the cap applies again after run
    cap = sys.get_int_max_str_digits()
    code, doc = invoke(capsys, "bounds", "simplicial", "--d", "4", "--r", "0",
                       "--value", str(10**3000))
    assert code == EXIT_OK
    assert sys.get_int_max_str_digits() == cap
    report = sandwich_simplicial(4, 0, 10**3000)
    for s, c in report.conclusions.items():
        assert doc["conclusions"][str(s)] == {
            "bound_holds": True, "lhs": _decimal(c.lhs), "rhs": _decimal(c.rhs)}
    assert len(doc["conclusions"]["3"]["rhs"]) > cap


@pytest.mark.parametrize("digits", [4300, 4301, 10001])
def test_integer_options_past_the_digit_cap_are_refused(capsys, digits):
    text = "1" + "0" * (digits - 1)
    code = run(["bounds", "simplicial", "--d", "4", "--r", "0", "--value", text])
    out, err = capsys.readouterr()
    if digits <= 4300:
        assert code == EXIT_OK
        return
    assert code == EXIT_USAGE
    assert json.loads(out) == {
        "error": f"argument --value: integers have at most 4300 digits, got {digits}"}
    assert "0" * 100 not in out + err


def test_a_signed_integer_at_the_digit_cap_is_read(capsys):
    # 4,300 digits after the sign: 4,301 characters, within the cap
    code, doc = invoke(capsys, "check", "nonnegative", "--vec", f"[1, -{'1' * 4300}]")
    assert (code, doc) == (EXIT_FAIL, {"result": False})


def test_integers_from_2_to_the_53_on_are_emitted_as_strings(capsys):
    code, doc = invoke(capsys, "transform", "--d", "3", "--from", "f", "--to", "f",
                       "--vec", json.dumps([2**53 - 1, 2**53, 1]))
    assert (code, doc["f"]) == (EXIT_OK, [2**53 - 1, str(2**53), 1])


@pytest.mark.parametrize("option", ["--vec", "--file", "--g1", "--g2"])
def test_deeply_nested_json_is_a_json_error(capsys, tmp_path, option):
    # json raised RecursionError here, which escaped run as a traceback
    deep = "[" * 100000
    if option == "--g1":
        argv = ["compare", "--d", "4", "--r", "0", "--g1", deep, "--g2", "[1,1,1]"]
    elif option == "--g2":
        argv = ["compare", "--d", "4", "--r", "0", "--g1", "[1,1,1]", "--g2", deep]
    elif option == "--file":
        (path := tmp_path / "deep.json").write_text(deep)
        argv = ["check", "m-sequence", "--file", str(path)]
    else:
        argv = ["transform", "--d", "4", "--from", "f", "--to", "h", "--vec", deep]
    code, doc = invoke(capsys, *argv)
    assert code == EXIT_USAGE
    assert doc == {"error": "JSON input is nested too deeply"}


@pytest.mark.parametrize("text", ["1_0", "\u0664", "\uff17", " 7", "7 ", "+7", "-", ""])
@pytest.mark.parametrize("option", ["--d", "--value"])
def test_integer_options_take_only_ascii_digits(capsys, option, text):
    # int() read 1_0 as 10, the Arabic-Indic and fullwidth digits as 4 and
    # 7, and took surrounding spaces and a leading +
    argv = {"--d": "4", "--r": "0", "--value": "50", option: text}
    code, doc = invoke(capsys, "bounds", "simplicial", *[x for kv in argv.items() for x in kv])
    assert code == EXIT_USAGE
    assert doc == {"error": f"argument {option}: invalid integer value: {text!r}"}


@pytest.mark.parametrize("text", ["+2", " 2", "2_0", "\u0662", "ALL", "x"])
def test_order_is_all_or_an_integer_option(capsys, text):
    code, doc = invoke(capsys, "verify", "minors", "--d", "5", "--order", text)
    assert code == EXIT_USAGE
    assert doc == {"error": f"argument --order: invalid order value: {text!r}"}


def test_vector_integers_past_the_digit_cap_are_refused(capsys):
    for entry in ("1" + "0" * 4300, '"1' + "0" * 4300 + '"'):
        code = run(["transform", "--d", "3", "--from", "g", "--to", "f", "--vec", f"[1,{entry}]"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "4300 digits" in json.loads(out)["error"]
        assert "0" * 100 not in out + err


@pytest.mark.parametrize("source", ["--vec", "--file", "--g2", "string entry"])
def test_json_integers_past_the_digit_cap_have_the_options_error(capsys, tmp_path, source):
    # CPython's own text advised sys.set_int_max_str_digits()
    big = "-" + "1" * 4302
    vec = f'[1,"{big}",1]' if source == "string entry" else f"[1,{big},1]"
    if source == "--g2":
        argv = ["compare", "--d", "4", "--r", "0", "--g1", "[1,1,1]", "--g2", vec]
    elif source == "--file":
        (path := tmp_path / "vec.json").write_text(vec)
        argv = ["transform", "--d", "3", "--from", "f", "--to", "h", "--file", str(path)]
    else:
        argv = ["transform", "--d", "3", "--from", "f", "--to", "h", "--vec", vec]
    code, doc = invoke(capsys, *argv)
    assert code == EXIT_USAGE
    assert doc == {"error": "integers have at most 4300 digits, got 4302"}


def test_huge_m_sequence_check_is_fast(capsys):
    code, doc = timed(
        invoke, capsys, "check", "m-sequence", "--vec", "[1,2,100000000000000000000]",
        seconds=1.0,
    )
    assert code == EXIT_FAIL and doc == {"result": False}


GOLDENS = Path(__file__).parent / "goldens"


# every golden exits EXIT_OK except these
GOLDEN_EXIT_FAIL = {
    "compare_uncertified.json", "compare_premise_false.json",
    "check_M_sequence_witness.json",
}


GOLDEN_RUNS = [
    (("verify", "minors", "--d", "13"), "verify_minors_d13.json"),
    (("verify", "lemma3", "--d", "30"), "verify_lemma3_d30.json"),
    (("verify", "phi", "--d", "8"), "verify_phi_d8.json"),
    (("verify", "gv", "--max", "4"), "verify_gv_max4.json"),
    (("verify", "ratio-chain", "--d", "9"), "verify_ratio_chain_d9.json"),
    (("compare", "--d", "3", "--g1", "[1,2]", "--g2", "[1,3]", "--r", "0"),
     "compare_certified.json"),
    (("compare", "--d", "4", "--g1", "[1,1,1]", "--g2", "[1,1,0]", "--r", "0"),
     "compare_uncertified.json"),
    (("compare", "--d", "6", "--g1", "[1,5,2,0]", "--g2", "[1,3,4,1]", "--r", "1"),
     "compare_premise_false.json"),
    (("bounds", "simplicial", "--d", "12", "--r", "3",
      "--value", "100000000000000000000000000"), "bounds_simplicial_big.json"),
    (("bounds", "cs", "--d", "3", "--r", "1", "--value", "12"), "bounds_cs_d3.json"),
    (("check", "M-sequence", "--vec", "[1,1,2]"), "check_M_sequence_witness.json"),
    (("transform", "--d", "4", "--from", "f", "--to", "h", "--vec", "[7,21,28,14]"),
     "transform_f_to_h.json"),
    (("verify", "minors", "--d", "10", "--order", "3"), "verify_minors_d10_order3.json"),
]


@pytest.mark.parametrize("argv, golden", GOLDEN_RUNS)
def test_verify_output_matches_golden(capsys, argv, golden):
    # the goldens were written by the CLI before the code behind them was
    # rewritten; stdout and the exit code must stay byte-identical
    code = EXIT_FAIL if golden in GOLDEN_EXIT_FAIL else EXIT_OK
    assert run(list(argv)) == code
    assert capsys.readouterr().out == (GOLDENS / golden).read_text()


def test_every_verify_kind_has_a_golden():
    # a new verify kind pins its JSON with a golden run
    pinned = {argv[1] for argv, _ in GOLDEN_RUNS if argv[0] == "verify"}
    assert set(cli._COMMANDS["verify"]) == pinned


@pytest.mark.parametrize("argv, error", [
    (["transform", "--d", "4", "--f", "f", "--to", "h"],
     "ambiguous option: --f could match --from, --file"),
    (["compare", "--d", "3", "--g1", "-x", "--g2", "[1,3]", "--r", "0"],
     "argument --g1: expected one argument"),
    (["bounds", "simplicial", "--d", "4", "--r", "1", "--value"],
     "argument --value: expected one argument"),
    (["bounds", "huge", "--d", "4", "--r", "1", "--value", "21"],
     "argument which: invalid choice: 'huge' (choose from 'simplicial', 'cs')"),
    (["transform", "--d", "4", "--from", "x", "--to", "h"],
     "argument --from: invalid choice: 'x' (choose from 'f', 'h', 'g')"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "
     "'transform', 'family', 'check', 'compare', 'bounds', 'verify')"),
    ([], "the following arguments are required: command"),
    (["family"], "the following arguments are required: which"),
    (["family", "cyclic", "--d", "x", "--emit", "huge"],
     "argument --d: invalid integer value: 'x'"),
    (["family", "huge", "--d", "x"],
     "argument which: invalid choice: 'huge' (choose from 'cyclic', 'stacked', 'cs-stacked')"),
    (["family", "cyclic", "--d", "4", "--n", "7", "--bogus", "3"],
     "unrecognized arguments: --bogus 3"),
    (["family", "cyclic", "--d", "4", "--n", "7", "--"], "unrecognized arguments: --"),
    (["-x", "family", "cyclic", "--d", "4"], "the following arguments are required: --n"),
    (["-x", "family", "cyclic", "--d", "4", "--n", "7", "8"], "unrecognized arguments: -x 8"),
    (["family", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
    (["family", "-hhx"], "argument -h/--help: ignored explicit argument 'x'"),
    # a kind comes right after its command, and -- ends the options
    (["family", "--d", "x", "huge"], f"argument which: invalid choice: 'x' {FAMILIES}"),
    (["family", "--d", "5", "cyclic", "--n", "7", "--d", "4"],
     f"argument which: invalid choice: '5' {FAMILIES}"),
    (["family", "--d", "4", "--n", "7", "--", "cyclic"],
     f"argument which: invalid choice: '4' {FAMILIES}"),
    (["family", "--d", "4", "--n", "7", "cyclic", "--"],
     f"argument which: invalid choice: '4' {FAMILIES}"),
    (["family", "--em", "f", "cyclic", "--d", "4", "--n", "7"],
     f"argument which: invalid choice: 'f' {FAMILIES}"),
    (["family", "--", "cyclic", "--d", "4", "--n", "7"],
     f"argument which: invalid choice: '--' {FAMILIES}"),
    (["family", "--"], "the following arguments are required: which"),
    (["verify", "phi", "--", "--d", "3"], "unrecognized arguments: -- --d 3"),
    (["verify", "phi", "--d", "3", "--"], "unrecognized arguments: --"),
    # each kind takes only its own options (each of these but the first was
    # answered), and check dehn-sommerville requires --d
    (["check", "dehn-sommerville", "--vec", "[1,3,3,1]"],
     "the following arguments are required: --d"),
    (["check", "m-sequence", "--vec", "[1,2,3]", "--d", "3"], "unrecognized arguments: --d 3"),
    (["check", "M-sequence", "--vec", "[1,2,3]", "--d", "3"], "unrecognized arguments: --d 3"),
    (["check", "nonnegative", "--vec", "[1,0,2]", "--d", "99"], "unrecognized arguments: --d 99"),
    (["verify", "minors", "--d", "5", "--max", "2"], "unrecognized arguments: --max 2"),
    (["verify", "lemma3", "--d", "5", "--order", "2"], "unrecognized arguments: --order 2"),
    (["verify", "lemma3", "--d", "5", "--max", "2"], "unrecognized arguments: --max 2"),
    (["verify", "gv", "--max", "2", "--d", "12"], "unrecognized arguments: --d 12"),
    (["verify", "gv", "--max", "2", "--order", "2"], "unrecognized arguments: --order 2"),
    (["verify", "phi", "--d", "3", "--order", "2"], "unrecognized arguments: --order 2"),
    (["verify", "phi", "--d", "3", "--max", "2"], "unrecognized arguments: --max 2"),
    (["verify", "ratio-chain", "--d", "5", "--order", "2"], "unrecognized arguments: --order 2"),
    (["verify", "ratio-chain", "--d", "5", "--max", "2"], "unrecognized arguments: --max 2"),
])
def test_argv_errors_have_argparse_texts(capsys, argv, error):
    # token errors left to right, then missing arguments, then unknown ones
    code, doc = invoke(capsys, *argv)
    assert code == EXIT_USAGE
    assert doc == {"error": error}


@pytest.mark.parametrize("argv", [
    ["family", "cyclic", "--d=4", "--n", "7"],
    ["family", "cyclic", "--d", "4", "--n", "7", "--emit=f"],
    ["family", "cyclic", "--d", "5", "--n", "7", "--d", "4"],
    ["family", "cyclic", "--n", "7", "--d", "4"],
    ["family", "cyclic", "--n=7", "--d=4", "--emit", "f"],
    ["family", "cyclic", "--em", "f", "--d", "4", "--n", "7"],
])
def test_argv_forms_of_one_request(capsys, argv):
    # a space or =, options in any order, the last of a repeated option and a
    # unique prefix all read the same
    assert invoke(capsys, *argv) == (EXIT_OK, {"d": 4, "f": [7, 21, 28, 14]})


@pytest.mark.parametrize("argv", [
    ["transform", "--d", "4", "--from", "f", "--to", "h",
     "--vec", "[7,21,28,14]", "--file", "v.json"],
    ["check", "nonnegative", "--file", "v.json", "--vec", "[7,21,28,14]"],
])
def test_vec_and_file_together_are_refused(capsys, tmp_path, monkeypatch, argv):
    # each answered from the file, dropping --vec
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v.json").write_text("[7,21,28,14]")
    code, doc = invoke(capsys, *argv)
    assert code == EXIT_USAGE
    assert doc == {"error": "a vector is given once (--vec or --file, not both)"}


@pytest.mark.parametrize("argv", [
    ["transform", "--d", "4", "--from", "f", "--to", "h", "--file", ""],
    ["check", "nonnegative", "--file", ""],
])
def test_an_empty_file_name_is_opened_as_given(capsys, argv):
    # --file '' was read as no file: "a vector is required (--vec or --file)"
    code, doc = invoke(capsys, *argv)
    assert code == EXIT_USAGE
    assert doc == {"error": "[Errno 2] No such file or directory: ''"}


ROOT = Path(__file__).parent.parent
ARGPARSE = build_parser()


def _written_argv(path):
    """Every argv written out in a test file: the strings passed to invoke,
    and each list or tuple of strings that starts with a subcommand or an
    option."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "invoke":
            items = node.args[1:]
        elif isinstance(node, (ast.List, ast.Tuple)):
            items = node.elts
        else:
            continue
        if items and all(isinstance(x, ast.Constant) and isinstance(x.value, str) for x in items):
            argv = [x.value for x in items]
            if argv[0] in cli._COMMANDS or argv[0].startswith("-"):
                yield argv


def _shell_argv(path):
    """The argv of each `fvectors ...` command line in a README or script."""
    for line in path.read_text().splitlines():
        if line.startswith("fvectors "):
            yield shlex.split(line.partition("||")[0])[1:]


ARGV_CORPUS = [
    *_written_argv(Path(__file__)), *map(list, CLI_RUNS),
    *_shell_argv(ROOT / "README.md"), *_shell_argv(ROOT / "demos" / "cli_demo.sh"),
    ["family", "cyclic", "--d=4", "--n", "7"],
    ["bounds", "simplicial", "--d", "4", "--r", "1", "--va", "30"],
    ["transform", "--d", "4", "--f", "f", "--to", "h"],
    ["bounds", "simplicial", "--d", "4", "--r", "1", "--value"],
    ["compare", "--d", "3", "--g1", "-x", "--g2", "[1,3]", "--r", "0"],
    ["bounds", "cs", "--d", "4", "--r", "-1", "--value", "-5"],
    ["transform", "--d", "3", "--from", "f", "--to", "h", "--vec", "-1 2"],
    ["family", "cyclic", "--d", "5", "--n", "7", "--d", "4"],
    ["family", "--d", "4", "cyclic", "--n", "7"],
    ["family", "--", "cyclic"],
    ["family", "cyclic", "--d", "4", "--n", "7", "--bogus", "3"],
    ["family", "cyclic", "stacked", "--d", "4", "--n", "7"],
    [], ["family"], ["family", "--d", "4"], ["frobnicate"],
    ["-x", "family", "cyclic", "--d", "4", "--n", "7"],
    # -- before the subcommand, before an option's value, and -h glued to a value
    ["--"], ["--", "family"], ["family", "cyclic", "--n", "7", "--d", "--", "4"],
    ["-hh"], ["-hx"], ["family", "-h=x"], ["family", "-hh=h"], ["family", "--he=h"], ["--help="],
    # help and unknown options before and after a kind
    ["family", "cyclic", "-h"], ["verify", "-h", "gv"], ["bounds", "-x", "--help"],
    ["-x", "check", "-y", "nonnegative", "--vec", "[1]", "-z"], ["verify", "--he", "phi"],
    # an option of no kind of the command, and a kind after the options
    ["verify", "gv", "--d", "12"], ["verify", "gv", "--d", "12", "--max", "2"],
    ["verify", "phi", "--order", "2", "--d", "3"], ["family", "--d", "4", "--n", "7", "cyclic"],
]


def _reading(argv):
    """What cli reads from argv: (handler name, arguments), ("help", the
    command and kind it follows, or a prefix of them) or ("error", text)."""
    try:
        handler, args = cli._parse(list(argv))
    except ValueError as exc:
        return "error", str(exc)
    return ("help", args) if handler is cli._usage else (handler.__name__, vars(args))


def _argparse_reading(argv):
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            args = vars(ARGPARSE.parse_args(list(argv)))
    except ValueError as exc:
        return "error", str(exc)
    except SystemExit as exc:  # help: its usage line names the command and kind
        assert exc.code == 0
        return "help", tuple(takewhile(lambda word: word != "[-h]", out.getvalue().split()[2:]))
    return f"_cmd_{args.pop('command')}", args


def test_argv_reads_as_argparse_read_it():
    # the argparse parser the command table replaced is the oracle
    assert len(ARGV_CORPUS) > 150
    for argv in ARGV_CORPUS:
        assert _reading(argv) == _argparse_reading(argv), argv
