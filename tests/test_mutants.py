"""The mutant list follows the code: each old text is still there, once."""

from collections import Counter

from mutants import MUTANTS, ROOT


def test_every_old_text_occurs_once_in_its_module():
    for name, module, old, _, _ in MUTANTS:
        text = (ROOT / "src" / "fvectors" / f"{module}.py").read_text()
        assert text.count(old) == 1, name


def test_names_are_unique_and_equivalents_give_a_reason():
    assert [n for n, count in Counter(m[0] for m in MUTANTS).items() if count > 1] == []
    for name, _, _, _, expectation in MUTANTS:
        prefix, _, reason = expectation.partition("equivalent: ")
        assert expectation == "killed" or (prefix == "" and reason.strip()), name
