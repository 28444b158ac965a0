"""The standing mutant list of src/fvectors and its runner.

Each entry is (name, module, old text, new text, expectation), the old text
found once in src/fvectors/<module>.py and the expectation "killed" or
"equivalent: <why no test can tell>".  `python tests/mutants.py` runs tier-1
on a clean copy of the repo, which must pass, then on one mutated copy per
entry, one process at a time under a wall-clock timeout and an address-space
limit.  It prints one JSON line per run, with the failing node ids, and exits
1 when a status misses its expectation (about 25 minutes on a 2-core Xeon VM).
"""

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml", "README.md")
PYTEST = (sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
          "--continue-on-collection-errors", "--ignore=tests/test_mutants.py")
TIMEOUT_S, ADDRESS_SPACE = 600, 3 << 30
K = "killed"  # the expectation of a mutant that some tier-1 test must fail on
_ROWS = ('    _Case(CASE_1, True, "EN", "EN", q_map=_lift),\n',
         '    _Case(CASE_2A, False, "N", "N", _drop, _drop),\n',
         '    _Case(CASE_2B, False, "EN", "E", p_map=_lift),\n',
         '    _Case(CASE_2C, False, "E", "N", pair_map=_head_2c),\n')
_SWAPPED = _ROWS[1].replace("2A", "2B") + _ROWS[2].replace("2B", "2A")

MUTANTS = [
    ("binomial-edge", "exact", "if 0 <= k <= n", "if 0 <= k < n", K),
    ("int-entries-bool", "exact", "isinstance(x, bool) or ", "", K),
    ("binom-det-guard", "exact", "0 <= t <= p and 0 <= u <= q", "0 <= t and 0 <= u", K),
    ("md-entry-sign", "transforms", "- binomial(i, d - j)", "+ binomial(i, d - j)", K),
    ("f-to-h-sign", "transforms", "a[j] = a[j] - s", "a[j] = a[j] + s", K),
    ("h-to-g-short", "transforms", "[1:delta(h.d) + 1]", "[1:delta(h.d)]", K),
    ("h-mirror", "transforms", "h[d - len(h)::-1]", "h[::-1]", K),
    ("min-dim", "transforms", "if d < MIN_DIM:", "if d < MIN_DIM - 1:", K),
    ("cyclic-g-ratio", "families", "c * (x + i) // i", "c * (x + i + 1) // i", K),
    ("cs-g-ratio", "families", "c * (d + 1 - i) // i", "c * (d + 2 - i) // i", K),
    ("affine-last-step", "families", "(*row[:d - 1], d - 1)", "(*row[:d - 1], d)", K),
    ("top-walk-edge", "macaulay", ")) <= n:", ")) < n:", K),
    ("top-root-guard", "macaulay", "if 2 * j < n.bit_length():", "if 3 * j < n.bit_length():",
     "equivalent: both starts lie at or below the top, and the ratio walk climbs from either"),
    ("del-shift", "macaulay", "c * j // a", "c * j // (a + 1)", K),
    ("m-sequence-edge", "macaulay", "[j - 1] < c * j // m", "[j - 1] <= c * j // m", K),
    ("M-sequence-edge", "macaulay", "k)) > entries", "k)) >= entries", K),
    ("unit-tail-long", "macaulay", "range(j, j - rem, -1)", "range(j, j - rem - 1, -1)", K),
    ("crossing-last-positive", "comparison", "diffs[t] <= 0", "diffs[t] < 0", K),
    ("crossing-prefix", "comparison", "diffs[1:t]", "diffs[2:t]", K),
    ("guarantee-index", "comparison", "witness.t <= r + 1", "witness.t <= r",
     "equivalent: at t = r + 1 each m[i][r], i <= t, is positive, so is the gap, and the premise"
     " fails before t is read"),
    ("premise-strict", "comparison", "if gap > 0:", "if gap >= 0:", K),
    ("strict-premise-guard", "comparison", "gap != 0:", "gap > 0:", K),
    ("certified-guard", "comparison", "if guaranteed and not", "if False and not", K),
    ("chain-tail-positive", "comparison", "\n        and min(cs[:tail_start], default=1) > 0)",
     ")", K),
    ("chain-last-entry", "comparison", "min(cr[-1], cs[-1])", "cs[-1]", K),
    ("stacked-floor", "comparison", "if k < 0:", "if k < -1:", K),
    ("cyclic-n2-minus-1", "comparison", "    return n\n", "    return n - 1\n", K),
    ("cyclic-n2-neighborly", "comparison", "_top(value - 1, r + 1)", "_top(value, r + 1)", K),
    ("cyclic-n2-simplex", "comparison", "if value <= binomial", "if value < binomial",
     "equivalent: at the simplex's f_r the top gives d and the descent stops at d + 1"),
    ("newton-slope", "comparison", "(f - value) // df", "(f - value) // (df + 1)", K),
    ("newton-stops-at-one", "comparison", "while k := (f - value) // df:",
     "while (k := (f - value) // df) > 1:", K),
    ("newton-start-high", "comparison", "+ d + 3 - dl", "+ d + 4 - dl",
     "equivalent: convexity makes the descent never pass n2 from any start above it"),
    ("cs-witness-t", "comparison", "int(n > d)", "int(n >= d)", K),
    ("bits-minus-1", "lattice", "q // 2))).bit_length()", "q // 2))).bit_length() - 1", K),
    ("count-equal-ends", "lattice", "if t <= u:", "if t < u:",
     "equivalent: at t = u the mask keeps no cell of row u, so the walk reads 0 too"),
    ("seed-cell-0", "lattice", "** n - 1", "** n", K),
    ("seed-ratio", "lattice", "c * (n + 1 - x) // x", "c * (n - x) // x", K),
    ("mask-rows-short", "lattice", "range(u.bit_length())", "range(u.bit_length() - 1)", K),
    ("mask-row-past-u", "lattice", "row * (u + 1)) - 1)", "row * (u + 2)) - 1)", K),
    ("gv-swapped-term", "lattice", " - _count(p, q, u, t)", "", K),
    ("lift-length", "lattice", '"N" * (d - 1 - 2 * a)', '"N" * (d - 2 * a)', K),
    ("drop-last-step", "lattice", "return steps[1:]", "return steps[:-1]", K),
    ("head-2c-prefix", "lattice", "d - 2 * a - h - 2", "d - 2 * a - h - 1", K),
    ("case-1-as-2a", "lattice", _ROWS[0], _ROWS[0].replace("CASE_1", "CASE_2A"), K),
    ("cases-2a-2b-swapped", "lattice", _ROWS[1] + _ROWS[2], _SWAPPED, K),
    ("case-2a-deleted", "lattice", _ROWS[1], "", K),
    ("case-2c-deleted", "lattice", _ROWS[3], "", K),
    ("case-2b-q-EN", "lattice", '"EN", "E", p_map', '"EN", "EN", p_map', K),
    ("cases-reversed", "lattice", "".join(_ROWS), "".join(_ROWS[::-1]),
     "equivalent: each domain pair matches exactly one row, so the order picks nothing"),
    ("anchor-flag-misspelt", "lattice", 'fail("anchors_ok", tag,', 'fail("anchor_ok", tag,', K),
    ("phi-accepts-meeting-pair", "lattice", " or p_mask & q_mask:", ":", K),
    ("anchor-low", "lattice", "_vertex_bit(0, -a - 1)\n", "_vertex_bit(0, -a - 2)\n", K),
    ("count-check-one-sided", "lattice", "domain_size != minor:", "domain_size < minor:", K),
    ("width-margin", "minors", "// 2 + 2", "// 2 + 1", K),
    ("tie-lift-removed", "minors", "if rows < mark else lifts", "if False else lifts", K),
    ("order-1-last-column", "minors", "md[r].index(t), 1", "d - 1 - md[r][::-1].index(t), 1", K),
    ("top-order-kept", "minors", "if k < top:", "if k <= top:", K),
    ("laplace-sign", "minors", "sign[(k - 1 - i) % 2]", "sign[(k - i) % 2]", K),
    ("checked-skips-order", "minors", "for j in orders)", "for j in orders[1:])", K),
    ("order-label", "minors", " or top == dl + 1 else", " else", K),
    ("safe-max", "cli", "_SAFE_MAX = 2**53 - 1", "_SAFE_MAX = 2**53", K),
    ("digit-cap-edge", "cli", "))) > _MAX_DIGITS:", "))) >= _MAX_DIGITS:", K),
    ("compare-exit", "cli", "ok = report.premise_holds and all(", "ok = all(", K),
    ("argv-negative-number", "cli", "_NEGATIVE_NUMBER(token) or ", "", K),
    ("argv-space", "cli", ' or " " in token', "", K),
    ("argv-ambiguity", "cli", "if len(matches) > 1:", "if len(matches) > 2:", K),
    ("argv-glued-value", "cli", 'token.partition("=")', 'token, "", ""', K),
    ("argv-glued-help", "cli", 'return "-h", token[2:]', 'return "-h", None', K),
    ("argv-lone-dashes", "cli", 'in ([], ["--"]):', "== []:", K),
    ("argv-dashes-dropped", "cli", 'values.get("which") is _REQUIRED and k < len(args) or ',
     "", K),
    ("argv-values-after-dashes", "cli", "for token in args[:sep]] + [None] * (len(args) - sep)",
     "for token in args]", K),
    ("argv-help-rest", "cli", 'glued.lstrip("h") if option == "-h" and glued else glued',
     "glued", K),
]


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_tier1(mutant=None):
    """(status, failing node ids) of tier-1 on a fresh copy, mutated if asked."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            (shutil.copytree if (ROOT / name).is_dir() else shutil.copy2)(ROOT / name, copy / name)
        if mutant:
            path = copy / "src" / "fvectors" / f"{mutant[1]}.py"
            path.write_text(path.read_text().replace(mutant[2], mutant[3], 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        with subprocess.Popen(PYTEST, cwd=copy, env=env, stdout=subprocess.PIPE, text=True,
                              stderr=subprocess.DEVNULL, preexec_fn=_limit,
                              start_new_session=True) as proc:
            try:
                out = proc.communicate(timeout=TIMEOUT_S)[0]
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return "timed out", []
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode and not failed:
        failed = [f"pytest exit {proc.returncode}"]
    return ("killed" if failed else "survived"), failed


def main():
    status, failed = run_tier1()
    ok = status == "survived"
    print(json.dumps({"name": None, "status": "passed" if ok else status, "failed": failed}),
          flush=True)
    for mutant in MUTANTS if ok else ():
        status, failed = run_tier1(mutant)
        print(json.dumps({"name": mutant[0], "status": status, "failed": failed}), flush=True)
        ok &= (status != "survived") == (mutant[4] == "killed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
