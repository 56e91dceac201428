"""Mutation probe: is every catalog rule pinned by a test?

Each mutant below changes one line of one rule.  For each, the probe
copies ``src``, ``tests`` and ``perfbench`` into a temporary directory, applies the
mutant there, and runs the test expected to kill it.  Only a mutant that
test lets through gets the whole suite (``pytest -x``).  One ``pytest``
runs at a time, and the working tree is never written.

Usage (from the repository root):

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME ...     # the named mutants
    python3 tools/mutants.py --list       # names, files and expected killers

A mutant is ``killed`` by its own test, ``killed-by-suite`` by another
test (the table should then name that test), or ``survived``, which makes
the exit status 1.  A mutant whose text is not found exactly once, or
whose run errors before any test fails, is ``broken`` and also exits 1.
``tests/test_source.py`` checks the table's texts and killers.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # a line fragment found exactly once in the file
    new: str
    killer: str  # the pytest node id expected to kill it


MUTANTS = (
    # -------------------------------------------- when a sum is defined
    Mutant(
        "plain-sum-drops-equal-domains",
        "src/gealab/families.py",
        "defined = T.bounded or S.bounded or T.domain == S.domain",
        "defined = T.bounded or S.bounded",
        "tests/test_families.py::test_oplus_definedness",
    ),
    Mutant(
        "plain-sum-drops-a-bounded-right-operand",
        "src/gealab/families.py",
        "defined = T.bounded or S.bounded or T.domain == S.domain",
        "defined = T.bounded or T.domain == S.domain",
        "tests/test_families.py::test_oplus_definedness",
    ),
    Mutant(
        "bar-sum-checks-the-left-operand-alone",
        "src/gealab/families.py",
        "for X in (T, S) for a in X.atoms",
        "for X in (T,) for a in X.atoms",
        "tests/test_families.py::test_oplus_bar_regular_parts_must_add",
    ),
    Mutant(
        "family-sum-keeps-a-non-member-sum",
        "src/gealab/families.py",
        "if shape is not None and not _member(shape[0], op):",
        "if False:",
        "tests/test_families.py::test_family_sum_that_leaves_the_family_is_undefined",
    ),
    Mutant(
        "hamel-beside-an-unbounded-atom-is-summed",
        "src/gealab/forms.py",
        "if dom is None or ((t.hamel or s.hamel) and (t.unbounded or s.unbounded)):",
        "if dom is None:",
        "tests/test_supports.py::test_a_sum_never_leaves_the_catalog",
    ),
    # ------------------------------------------ membership and supports
    Mutant(
        "carrier-admits-every-bounded-form",
        "src/gealab/families.py",
        "carrier = not sup.bounded or sup.domain == FULL_SPACE",
        "carrier = True",
        "tests/test_families.py::test_carrier_rule",
    ),
    Mutant(
        "grid-boundary-atoms-always-singular",
        "src/gealab/forms.py",
        'kinds = () if energy else ("boundary0", "boundary1")',
        'kinds = ("boundary0", "boundary1")',
        "tests/test_acceptance.py::test_criterion_04_regular_sum_counterexample",
    ),
    Mutant(
        "bounded-form-closed-on-any-domain",
        "src/gealab/forms.py",
        "self.closed = domain == FULL_SPACE",
        "self.closed = True",
        "tests/test_forms.py::test_is_closed_rules",
    ),
    Mutant(
        "sequence-closed-ignores-the-singular-atom",
        "src/gealab/forms.py",
        'self.closed = domain.kind == "diag_max" and not self.singular',
        'self.closed = domain.kind == "diag_max"',
        "tests/test_forms.py::test_a_restricted_hamel_form_is_not_closed",
    ),
    Mutant(
        "grid-closed-without-the-energy-atom",
        "src/gealab/forms.py",
        "self.closed = energy",
        "self.closed = True",
        "tests/test_forms.py::test_is_closed_rules",
    ),
    Mutant(
        "finite-support-inside-every-tag",
        "src/gealab/forms.py",
        'return a == b or b == FULL_SPACE or (a.kind == "finite_support" and b.kind == "diag_max")',
        'return a == b or b == FULL_SPACE or a.kind == "finite_support"',
        "tests/test_forms.py::test_an_energy_form_lives_on_h1_grid_alone",
    ),
    Mutant(
        "natural-domain-is-the-last-atoms",
        "src/gealab/forms.py",
        "met = tag_meet(dom, atom.natural_domain)",
        "met = atom.natural_domain",
        "tests/test_supports.py::test_make_form_matches_the_per_call_rules",
    ),
    # ------------------------------------------------------------ orders
    Mutant(
        "preceq-domain-check-reversed",
        "src/gealab/families.py",
        "if not tag_includes(s.domain, t.domain):",
        "if not tag_includes(t.domain, s.domain):",
        "tests/test_families.py::test_preceq_basics",
    ),
    Mutant(
        "preceq-atomwise-certificate-off",
        "src/gealab/families.py",
        "if not any(c < 0 for c in diff.values()):",
        "if False:",
        "tests/test_cli.py::test_example_5_4_reads_its_dominators_off_the_search",
    ),
    Mutant(
        "preceq-routes-by-both-supports",
        "src/gealab/families.py",
        'if t.model == SEQUENCE and all(a.kind == "diag" or a.gen == "id" for a in diff):',
        'if t.model == SEQUENCE and all(a.kind == "diag" or a.gen == "id" for a in t.support.atoms + s.support.atoms):',
        "tests/test_diagonal_order.py::test_diagonal_pairs_read_no_float_tolerance_or_eigensolve",
    ),
    Mutant(
        "le-oplus-drops-the-full-space-case",
        "src/gealab/families.py",
        "if not (t.domain == FULL_SPACE or t.domain == s.domain):",
        "if not t.domain == s.domain:",
        "tests/test_families.py::test_le_oplus_is_a_decision_procedure",
    ),
    Mutant(
        "le-family-skips-the-operands-membership",
        "src/gealab/families.py",
        "if not (in_family(t, family) and in_family(s, family)):",
        "if not in_family(s, family):",
        "tests/test_families.py::test_le_family_membership_gate",
    ),
    Mutant(
        "family-sum-of-vf-bar-is-the-plain-sum",
        "src/gealab/families.py",
        "_BAR if _lookup(op)[0].bar else _PLAIN",
        "_PLAIN",
        "tests/test_families.py::test_le_bar_strictly_finer",
    ),
    Mutant(
        "le-family-skips-the-family-sum",
        "src/gealab/families.py",
        "_plan(family, t.support, r.support) is not None",
        "True",
        "tests/test_families.py::test_le_family_membership_gate",
    ),
    Mutant(
        "ominus-skips-the-add-back-check",
        "src/gealab/families.py",
        "if shape is None or shape[0] is not s.support:",
        "if False:",
        "tests/test_families.py::test_ominus_forms_domain_witness",
    ),
    Mutant(
        "psd-tolerance-1e-3",
        "src/gealab/forms.py",
        "PSD_TOL = 1e-9",
        "PSD_TOL = 1e-3",
        "tests/test_families.py::test_one_positivity_rule",
    ),
    # ------------------------------------------------------------ axioms
    Mutant(
        "gev-needs-x-zero-alone",
        "src/gealab/kernel.py",
        "if gev and xy == zero and not (x == zero and y == zero):",
        "if gev and xy == zero and not x == zero:",
        "tests/test_kernel.py::test_check_axioms_matches_reference_on_random_tables",
    ),
    Mutant(
        "geii-needs-both-associations-defined",
        "src/gealab/kernel.py",
        "if (lhs is not None or rhs is not None) and lhs != rhs:",
        "if lhs is not None and rhs is not None and lhs != rhs:",
        "tests/test_kernel.py::test_check_axioms_matches_reference_on_random_tables",
    ),
    Mutant(
        "geiv-counts-two-undefined-sums",
        "src/gealab/kernel.py",
        "if geiv and xy is not None and xy == add(x, z) and y != z:",
        "if geiv and xy == add(x, z) and y != z:",
        "tests/test_acceptance.py::test_criterion_01_axiom_suites",
    ),
    # ---------------------------------------- the diagonal order route
    Mutant(
        "diagonal-atom-dropped-at-its-cut",
        "src/gealab/forms.py",
        "if cut is None or (hi is not None and hi <= cut):",
        "if cut is None or (hi is not None and hi < cut):",
        "tests/test_diagonal_order.py::test_cuts_past_the_largest_level_are_ordered",
    ),
    Mutant(
        "diagonal-tail-sign-unchecked",
        "src/gealab/forms.py",
        "candidates.add(2 + max(abs(c) for c in g) // -lead)",
        "pass",
        "tests/test_diagonal_order.py::test_a_negative_tail_past_every_critical_point_is_found",
    ),
    Mutant(
        "diagonal-critical-points-unread",
        "src/gealab/forms.py",
        "candidates.update(range(m - 1, m + 3))",
        "pass",
        "tests/test_diagonal_order.py::test_a_critical_point_between_the_ends_is_found",
    ),
)


def _pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rf", *args]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


def _first_failure(run: subprocess.CompletedProcess) -> str:
    for line in run.stdout.splitlines():
        if line.startswith("FAILED "):
            return line.split()[1]
    return ""


def probe(mutant: Mutant) -> tuple[str, str]:
    """``(outcome, detail)`` of one mutant on a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="gealab-mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests", "perfbench"):  # tests read the tracer in perfbench
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "broken", f"the text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        for args, outcome in (((mutant.killer,), "killed"), ((), "killed-by-suite")):
            run = _pytest(tree, *args)
            if run.returncode == 1:
                return outcome, _first_failure(run)
            if run.returncode != 0:
                return "broken", f"pytest exit {run.returncode}: {run.stdout.strip().splitlines()[-1:]}"
        return "survived", "no test failed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args()
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name:45s} {m.path:26s} {m.killer}")
        return 0
    bad = 0
    for m in chosen:
        outcome, detail = probe(m)
        print(f"{outcome:16s} {m.name:45s} {detail}", flush=True)
        bad += outcome in ("broken", "survived")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
