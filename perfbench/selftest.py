"""Mutation self-test of the output checks.

Run from the repository root:

    python3 perfbench/selftest.py

It runs a few inputs through ``revolutio.cli.main``, shows that the checks
accept the real outputs, then corrupts each output in one way and shows
that the checks reject every corrupted copy. Exit code 0 when every
mutation is caught.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from workloads import OUT, analyze_case, mesh_report_case, quadric_case

sys.path.insert(0, str(Path("src").resolve()))


def _run(case):
    from run import run_block
    import revolutio.cli as cli

    _, code, out, failures = run_block(cli, dataclasses.replace(case, reps=1))
    assert not failures, f"{case.label} raised {code}"
    return code, out


def _bump(obj: dict) -> None:
    """Add 1/7 to the first coefficient of the first component."""
    coeff = obj["components"][0]["terms"][0]["coefficient"]
    key = next(iter(coeff))
    coeff[key] = str(Fraction(coeff[key]) + Fraction(1, 7))


def mutations():
    """(name, case, mutate) where mutate maps (exit code, stdout) to a corrupted copy, or names an OBJ corruption."""
    dc = analyze_case("--implicit", ("x^2+y^2-z^2+1",), "double cover", delta=2,
                      verdict="REAL_NONPROPER_DOUBLE_COVER", fiber=2, quadric="hyperboloid-two-sheets")
    s2 = analyze_case("--p2", ("t^2+2", "t"), "one sheet over sqrt(2)", delta=2,
                      verdict="REAL_PROPER", quadric="hyperboloid-one-sheet")
    q = quadric_case("2*x^2+3*y^2+z^2-1", "ellipsoid", cls="ellipsoid", witness=True)
    cyl = analyze_case("--implicit", ("x^2+y^2-1",), "cylinder", exit=3, error="CYLINDER")
    mesh = mesh_report_case("one_sheet_sqrt2.json", "real", 6, "mesh over sqrt(2)")

    def doc_edit(edit):
        def mutate(code, out):
            doc = json.loads(out)
            edit(doc)
            return code, json.dumps(doc)
        return mutate

    def set_key(path, value):
        def edit(doc):
            node = doc
            for k in path[:-1]:
                node = node[k]
            node[path[-1]] = value
        return edit

    def shift_embedding(doc):
        step = doc["real_verdict"]["witness"]["tower"][0]
        step["embedding"] = ["2", "3"]  # x^2 - 2 has no root in [2, 3]

    def square_p(doc):
        p = doc["p2_decomposition"]["p"]
        p["terms"][0]["coefficient"] = {"": "4"}

    return [
        ("perturbed complex-witness coefficient", dc,
         doc_edit(lambda d: _bump(d["complex_parametrization"]))),
        ("perturbed real-witness coefficient", s2,
         doc_edit(lambda d: _bump(d["real_verdict"]["witness"]))),
        ("perturbed quadric-witness coefficient", q, doc_edit(lambda d: _bump(d["witness"]))),
        ("wrong verdict code", s2, doc_edit(set_key(["real_verdict", "code"], "UNRESOLVED"))),
        ("wrong fiber count", dc, doc_edit(set_key(["real_verdict", "fiber_count"], 4))),
        ("wrong delta", s2, doc_edit(set_key(["p2_decomposition", "delta"], 1))),
        ("p*a^2 off the first coordinate", s2, doc_edit(square_p)),
        ("embedding interval without a root", s2, doc_edit(shift_embedding)),
        ("wrong quadric class", q, doc_edit(set_key(["class"], "hyperboloid-one-sheet"))),
        ("wrong refusal code", cyl, doc_edit(set_key(["error", "code"], "NOT_SOR"))),
        ("wrong exit code", cyl, lambda code, out: (0, out)),
        ("dropped vertex", mesh, "drop"),
        ("moved vertex", mesh, "move"),
    ]


def corrupt_obj(case, how):
    path = Path(case.argv[case.argv.index("--out") + 1])
    lines = path.read_text().splitlines()
    vi = [i for i, ln in enumerate(lines) if ln.startswith("v ")]
    if how == "drop":
        del lines[vi[len(vi) // 2]]
    else:
        x, y, z = (float(t) for t in lines[vi[3]].split()[1:])
        lines[vi[3]] = f"v {x + 1e-6:.12g} {y:.12g} {z:.12g}"
    bad = OUT / f"selftest-{how}.obj"
    bad.write_text("\n".join(lines) + "\n")
    argv = list(case.argv)
    argv[argv.index("--out") + 1] = str(bad)
    return dataclasses.replace(case, argv=tuple(argv))


def main() -> int:
    import checks

    OUT.mkdir(exist_ok=True)
    rng = random.Random(20260818)
    caught = 0
    cases = mutations()
    for name, case, mutate in cases:
        code, out = _run(case)
        checks.check_case(case, code, out, rng)  # the real output passes
        if mutate in ("drop", "move"):
            bad_case, bad_code, bad_out = corrupt_obj(case, mutate), code, out
        else:
            bad_case = case
            bad_code, bad_out = mutate(code, out)
        try:
            checks.check_case(bad_case, bad_code, bad_out, rng)
        except checks.Mismatch as exc:
            caught += 1
            print(f"caught  {name}: {exc}")
        else:
            print(f"MISSED  {name}")
    print(f"{caught}/{len(cases)} mutations caught")
    return 0 if caught == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
