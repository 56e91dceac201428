"""Hand-written expected verdicts for every benchmark op.

The table is written from the paper's results as PAPER.md and the README
state them, never from gealab's own output:

* sigma: the fixed-domain family keeps meets and joins of monotone
  chains; the plain-sum family keeps meets but not joins; the bounded
  family keeps meets; the regular, closed and bar families keep neither,
  and the closed family regains joins under the pointwise order.
* the downward obstruction for rf, cf and vf-bar is the pair (t1, t'):
  t' is the unit energy form and t1 = t' plus both endpoint terms.
* the truncated-diagonal chain has the two incomparable dominators, the
  unbounded diagonal on its maximal domain and on finite support.
* even-gap inside the integers is sum-closed but not a sub-algebra, with
  certificate (4, 2, 6).
* every lawful instance and every form family satisfies all five axioms,
  for any seed; ``broken-max`` (join in place of addition) fails only
  cancellation, GEiv.
* in an interval the meet and join of a descending chain are its last
  and first terms.

Each checker returns a list of problems; an empty list is a correct op.
"""

from __future__ import annotations

import json

AXIOMS = ("GEi", "GEii", "GEiii", "GEiv", "GEv")


def _form(model, domain, *atoms):
    return {"model": model, "domain": domain, "atoms": list(atoms)}


# forms in the report schema of README's `--format json`
T_PRIME = _form("grid", "h1_grid", {"kind": "dirichlet", "c": "1"})
T_1 = _form(
    "grid",
    "h1_grid",
    {"kind": "dirichlet", "c": "1"},
    {"kind": "boundary", "alpha": "1", "beta": "1"},
)
ENDPOINTS = _form("grid", "h1_grid", {"kind": "boundary", "alpha": "1", "beta": "1"})
ZERO_GRID = _form("grid", "full")
_DIAG_J = {"kind": "diag", "lambda": "j", "sup": "inf", "coeff": "1"}
DIAG_J_MAX = _form("sequence", "diag_max:j", _DIAG_J)
DIAG_J_FIN = _form("sequence", "finite_support", _DIAG_J)
DIAG_INV_J = _form("sequence", "full", {"kind": "diag", "lambda": "1/j", "sup": "1", "coeff": "1"})

# (family, direction, order) -> (sigma complete?, element or obstruction pair)
SIGMA = {
    ("vfd:h1_grid", "down", None): (True, ENDPOINTS),
    ("vfd:h1_grid", "up", None): (True, T_PRIME),
    ("vf", "down", None): (True, T_1),
    ("vf", "up", None): (False, None),
    ("bf", "down", None): (True, DIAG_INV_J),
    ("rf", "down", None): (False, (T_1, T_PRIME)),
    ("rf", "up", None): (False, None),
    ("cf", "down", None): (False, (T_1, T_PRIME)),
    ("cf", "up", None): (False, None),
    ("vf-bar", "down", None): (False, (T_1, T_PRIME)),
    ("vf-bar", "up", None): (False, None),
    ("cf", "up", "prec"): (True, T_PRIME),
}

# chain -> (completeness family, verdict, element or unordered obstruction pair)
CHAINS = {
    # Kato: the pointwise limit (the endpoint form) is not closed, so the
    # meet among closed forms is the zero form, not the limit
    "kato": ("cf", "found", ZERO_GRID),
    "shifted": ("vf", "found", T_1),
    "complement": ("vf", "found", T_PRIME),
    "diag": ("vf", "obstruction", (DIAG_J_MAX, DIAG_J_FIN)),
    "bounded": ("vf", "found", DIAG_INV_J),
}

# carrier sizes n; an exhaustive run tests n + n^2 + n^3 tuples
INSTANCE_SIZES = {
    "cone:2": 9 * 9,  # cap 8
    "cone:3": 4 * 4 * 4,  # cap 3
    "zplus": 51,  # cap 50
    "even-gap": 1 + 24,  # 0 and 4, 6, ..., 50
    "interval:3,2": 4 * 3,
    "half-open:3,3": 4 * 4 - 1,
    "broken-max": 9,  # cap 8
}


def _canon(form) -> tuple:
    atoms = sorted(json.dumps(a, sort_keys=True) for a in form.get("atoms", ()))
    return form.get("model"), form.get("domain"), tuple(atoms)


def same_form(got, want) -> bool:
    return isinstance(got, dict) and _canon(got) == _canon(want)


def _pair_problems(what, got, want, ordered=True) -> list[str]:
    if not isinstance(got, list) or len(got) != 2:
        return [f"{what}: expected a witness pair, got {got!r}"]
    if ordered:
        ok = all(same_form(g, w) for g, w in zip(got, want))
    else:
        ok = sorted(map(_canon, got)) == sorted(map(_canon, want))
    return [] if ok else [f"{what}: witness pair {got!r} is not {want!r}"]


def _envelope(out: str, command: str, problems: list[str]) -> dict | None:
    try:
        env = json.loads(out)
    except ValueError:
        problems.append("output is not JSON")
        return None
    if env.get("schema") != "gealab/1" or env.get("command") != command:
        problems.append(f"bad envelope: schema={env.get('schema')!r} command={env.get('command')!r}")
    return env


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# ------------------------------------------------------------------ sigma


def check_sigma(op, code, out) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    env = _envelope(out, "sigma", problems)
    if env is None:
        return problems
    _expect(problems, "ok", env.get("ok"), True)
    _expect(problems, "config.seed", env.get("config", {}).get("seed"), op["seed"])
    rows = env.get("report", {}).get("rows", [])
    seen = {}
    for row in rows:
        key = (row.get("family"), row.get("direction"), row.get("order"))
        if key in seen:
            problems.append(f"sigma row {key} repeated")
        seen[key] = row
    _expect(problems, "sigma rows", sorted(map(str, seen)), sorted(map(str, SIGMA)))
    for key, (complete, evidence) in SIGMA.items():
        row = seen.get(key)
        if row is None:
            continue
        _expect(problems, f"sigma {key}", row.get("sigma_complete"), complete)
        report = row.get("report", {})
        if complete and evidence is not None:
            got = report.get("element", report.get("sup"))
            if not same_form(got, evidence):
                problems.append(f"sigma {key}: extremum {got!r} is not {evidence!r}")
        elif evidence is not None:
            problems += _pair_problems(f"sigma {key}", report.get("witnesses"), evidence)
    return problems


# ------------------------------------------------------------------ chain


def check_chain(op, code, out) -> list[str]:
    problems: list[str] = []
    env = _envelope(out, "chain", problems)
    if env is None:
        return problems
    body = env.get("report", {})
    _expect(problems, "config.seed", env.get("config", {}).get("seed"), op["seed"])
    if op.get("order") == "cf":
        # the truncated diagonal leaves the closed family: exit 1 with a witness
        _expect(problems, "exit code", code, 1)
        _expect(problems, "ok", env.get("ok"), False)
        if "error" not in body or not body.get("witness"):
            problems.append("failure carries no error and witness")
        return problems
    _expect(problems, "exit code", code, 0)
    _expect(problems, "ok", env.get("ok"), True)
    mono = body.get("monotone", {})
    _expect(problems, "monotone.ok", mono.get("ok"), True)
    _expect(problems, "monotone.steps_checked", mono.get("steps_checked"), 31)
    family, verdict, evidence = CHAINS[op["chain"]]
    comp = body.get("completeness", {})
    _expect(problems, "completeness.family", comp.get("family"), family)
    _expect(problems, "completeness.verdict", comp.get("verdict"), verdict)
    if verdict == "found":
        if not same_form(comp.get("element"), evidence):
            problems.append(f"extremum {comp.get('element')!r} is not {evidence!r}")
    else:
        problems += _pair_problems("obstruction", comp.get("witnesses"), evidence, ordered=False)
    if op["chain"] == "kato":
        _expect(problems, "pointwise.identity_ok", body.get("pointwise", {}).get("identity_ok"), True)
    return problems


# --------------------------------------------------------- counterexamples


def check_counterexample(op, code, out) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    env = _envelope(out, "counterexample", problems)
    if env is None:
        return problems
    _expect(problems, "ok", env.get("ok"), True)
    rep = env.get("report", {})
    name = op["name"]
    if name == "remark-2-2":
        _expect(problems, "certificate", rep.get("certificate"), [4, 2, 6])
        _expect(problems, "is_sub_gea", rep.get("is_sub_gea"), False)
        _expect(problems, "ambient_axioms_pass", rep.get("ambient_axioms_pass"), True)
        _expect(problems, "subset_axioms_pass", rep.get("subset_axioms_pass"), True)
        _expect(problems, "le_in_ambient", rep.get("le_in_ambient"), True)
        _expect(problems, "le_in_subset", rep.get("le_in_subset"), False)
    elif name == "example-5-4":
        _expect(problems, "verdict", rep.get("verdict"), "obstruction")
        problems += _pair_problems("example-5-4", rep.get("witnesses"), (DIAG_J_MAX, DIAG_J_FIN), ordered=False)
    elif name == "regular-sum":
        _expect(problems, "memberships", rep.get("memberships"), {"t_prime": True, "t_0": False, "t_1": True})
        _expect(problems, "two_of_three_violated", rep.get("two_of_three_violated"), True)
        _expect(problems, "bar_sum_undefined", rep.get("bar_sum_undefined"), True)
        triple = rep.get("triple") or [None] * 3
        for got, want in zip(triple, (T_PRIME, ENDPOINTS, T_1)):
            if not same_form(got, want):
                problems.append(f"regular-sum triple member {got!r} is not {want!r}")
    elif name in ("kato-inf", "bar-inf"):
        _expect(problems, "family", rep.get("family"), "cf" if name == "kato-inf" else "vf-bar")
        _expect(problems, "verdict", rep.get("verdict"), "obstruction")
        problems += _pair_problems(name, rep.get("witnesses"), (T_1, T_PRIME))
    return problems


# ----------------------------------------------------------------- axioms


def check_axioms(op, code, out) -> list[str]:
    problems: list[str] = []
    env = _envelope(out, "axioms", problems)
    if env is None:
        return problems
    rep = env.get("report", {})
    verdicts = {v.get("axiom"): v for v in rep.get("verdicts", [])}
    _expect(problems, "axioms reported", sorted(verdicts), sorted(AXIOMS))
    broken = op.get("instance") == "broken-max"
    failing = {"GEiv"} if broken else set()
    for axiom in AXIOMS:
        _expect(problems, f"{axiom} passed", verdicts.get(axiom, {}).get("passed"), axiom not in failing)
    _expect(problems, "exit code", code, 1 if broken else 0)
    _expect(problems, "all_pass", rep.get("all_pass"), not broken)
    if "family" in op:
        _expect(problems, "mode", rep.get("mode"), "sampled")
        _expect(problems, "samples_tested", rep.get("samples_tested"), op["samples"])
        _expect(problems, "seed", rep.get("seed"), op["seed"])
    else:
        n = INSTANCE_SIZES[op["instance"]]
        _expect(problems, "mode", rep.get("mode"), "exhaustive")
        _expect(problems, "samples_tested", rep.get("samples_tested"), n + n * n + n * n * n)
    if broken:
        cex = verdicts.get("GEiv", {}).get("counterexample") or []
        try:
            x, y, z = (int(e) for e in cex)
        except ValueError:
            return problems + [f"GEiv counterexample {cex!r} is not three integers"]
        # cancellation fails: x + y = x + z with y != z, where + is max
        if not (max(x, y) == max(x, z) and y != z and all(0 <= e <= 8 for e in (x, y, z))):
            problems.append(f"GEiv counterexample {cex!r} does not violate cancellation")
    return problems


# ----------------------------------------------------------- derived order


def check_derived_order(op, code, out) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    try:
        results = json.loads(out)["results"]
    except (ValueError, KeyError):
        return problems + ["output is not a derived-order result"]
    _expect(problems, "results", len(results), len(op["chains"]))
    for chain, got in zip(op["chains"], results):
        # the componentwise min and max of a descending chain are its ends
        meet = [min(c) for c in zip(*chain)]
        join = [max(c) for c in zip(*chain)]
        if meet != chain[-1] or join != chain[0]:
            problems.append(f"benchmark drew a chain that does not descend: {chain!r}")
        if got != [meet, join, meet, join]:
            problems.append(f"chain {chain!r}: meets/joins {got!r}, expected meet {meet} join {join}")
            if len(problems) > 10:
                break
    return problems


CHECKERS = {
    "sigma": check_sigma,
    "chain": check_chain,
    "counterexample": check_counterexample,
    "axioms": check_axioms,
    "derived-order": check_derived_order,
}
