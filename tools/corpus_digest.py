"""Digest of the benchmark corpus's outputs, for byte-identity checks.

Runs every distinct invocation of ``perfbench/workloads.py`` at the given
seeds (default 1 and 7), then the fixed ``extras``, once each through
``revolutio.cli.main``, in one process, and prints one line per call:

    exit=<code> out=<sha256 of stdout> err=<sha256 of stderr> obj=<sha256 of the OBJ file or -> <argv>

``extras`` reach code paths the benchmark corpus misses:

- double covers whose witness lives over a tower, where the fiber count
  runs on tower coefficients: ``analyze --p2 "t^2-2" "t^2+t"`` and
  ``analyze --p2 "2*t^2-1" "t^3+t"``;
- a linear first coordinate, whose implicit equation is a resultant with
  the linear operand first: ``analyze --p2 t t^3``;
- homogeneous witnesses above the corpus's degrees, whose packed runs take
  the graded layout: ``analyze --p2 t^60 t`` (the corpus stops at
  ``t^19``) and ``analyze --implicit "x^2+y^2-z^61"``, the delta-1
  paraboloid base past ``z^30``;
- a graded run that adds values of different total degrees, so that their
  rows are aligned before the sum: ``analyze --p2 t^2+t^4 t``. These three
  finish within a second in the dense box layout too, so a byte-identity
  check can run them on a base commit without the graded one;
- mesh rows that fail the row bound, so that ``numeric_eval`` certifies
  them one value at a time, refining after the first value:
  ``one_sheet_sqrt2.json`` at ``--tol 1e-15`` over ``u`` in [0, 8], where
  |u| grows row by row (6 of its 8 rows fail the bound, and 5 of those
  refine after their first value);
- the smallest grid: ``cone_beta.json`` at ``--grid 2``;
- a rational grid end with a tight tolerance: the quadric witness of
  ``quadric_sqrt13.json`` with ``--u-min=-1/3 --tol 1e-14``;
- vertices printed in exponent form: ``mesh --param "1/100000*u" v
  "10^13*u+v^5"``;
- witnesses the corpus never meshes: a height-2 real tower, Q(sqrt(2),
  beta), from ``analyze --p2 "2*(t^2-3)^2" t``, and a cubic generator,
  beta^3 = 2, from ``analyze --p2 "(t^3-2)^2" t``. Each report is written
  to ``workloads.OUT`` as its call's stdout (``extra_reports``), then
  meshed at ``--grid 20``, and at ``--tol 1e-15`` over ``u`` in [0, 8].

The mesh calls read their reports from ``workloads.REPORTS`` or
``workloads.OUT`` and write to ``workloads.OUT`` of the checkout run, so
their paths take the ``<ROOT>`` placeholder like the corpus's.

The tree's own path is replaced by ``<ROOT>`` in the argv, stdout and
stderr, so two checkouts of different commits give the same digest exactly
when their outputs agree. Mesh calls write their OBJ files to the
gitignored ``perfbench/out/``, as benchmark runs do; each is removed before
its call, so a call that writes none shows ``obj=-``.

Compare a change with its parent:

    python3 tools/corpus_digest.py > head.txt
    python3 tools/corpus_digest.py --root ../parent-checkout > base.txt
    diff base.txt head.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

PLACEHOLDER = "<ROOT>"


def extra_reports(workloads) -> dict:
    """The reports that ``extras`` mesh, by their path under
    ``workloads.OUT``: each is the stdout of the call it maps to."""
    out = workloads.OUT
    return {
        out / "extra-sqrt2_beta.json": ("analyze", "--p2", "2*(t^2-3)^2", "t"),
        out / "extra-beta_cubed_2.json": ("analyze", "--p2", "(t^3-2)^2", "t"),
    }


def extras(workloads) -> tuple:
    """Invocations outside the benchmark corpus, run after it (see above)."""
    reports, out = workloads.REPORTS, workloads.OUT
    meshed = []
    for path, argv in extra_reports(workloads).items():
        meshed += [
            argv,
            ("mesh", "--report", str(path), "--grid", "20", "--out", str(out / f"{path.stem}-20.obj")),
            ("mesh", "--report", str(path), "--tol", "1e-15", "--u-min", "0", "--u-max", "8",
             "--out", str(out / f"{path.stem}-tol.obj")),
        ]
    return (
        ("analyze", "--p2", "t^2-2", "t^2+t"),
        ("analyze", "--p2", "2*t^2-1", "t^3+t"),
        ("analyze", "--p2", "t", "t^3"),
        ("analyze", "--p2", "t^60", "t"),
        ("analyze", "--implicit", "x^2+y^2-z^61"),
        ("analyze", "--p2", "t^2+t^4", "t"),
        ("mesh", "--report", str(reports / "one_sheet_sqrt2.json"), "--tol", "1e-15",
         "--u-min", "0", "--u-max", "8", "--out", str(out / "extra-one_sheet_sqrt2-tol.obj")),
        ("mesh", "--report", str(reports / "cone_beta.json"), "--grid", "2",
         "--out", str(out / "extra-cone_beta-2.obj")),
        ("mesh", "--report", str(reports / "quadric_sqrt13.json"), "--witness", "quadric",
         "--u-min=-1/3", "--tol", "1e-14", "--out", str(out / "extra-quadric_sqrt13-tol.obj")),
        ("mesh", "--param", "1/100000*u", "v", "10^13*u+v^5", "--out", str(out / "extra-exponent-form.obj")),
        *meshed,
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def invocations(workloads, seeds) -> list:
    """Distinct argv tuples over every workload and seed, then ``extras``,
    in first-seen order."""
    seen = {}
    for seed in seeds:
        for name in workloads.WORKLOADS:
            for case in workloads.build(name, seed):
                seen.setdefault(tuple(case.argv), None)
    for argv in extras(workloads):
        seen.setdefault(argv, None)
    return list(seen)


def digest_line(cli, argv: tuple, root: str, report=None) -> str:
    """The digest line of one call; with ``report``, its stdout is also
    written to that path."""
    out_path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an output too
            code = f"{type(exc).__name__}: {exc}".replace(root, PLACEHOLDER)
    if report is not None:
        report.parent.mkdir(parents=True, exist_ok=True)
        report.write_text(out.getvalue())
    obj = _sha(out_path.read_bytes()) if out_path is not None and out_path.exists() else "-"
    label = " ".join(repr(a) for a in argv).replace(root, PLACEHOLDER)
    return (
        f"exit={code} out={_sha(out.getvalue().replace(root, PLACEHOLDER).encode())} "
        f"err={_sha(err.getvalue().replace(root, PLACEHOLDER).encode())} obj={obj} {label}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                    help="checkout whose src/ and perfbench/ are run (default: this one)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = ap.parse_args(argv)
    root = str(Path(args.root).resolve())
    sys.path[:0] = [str(Path(root, "src")), str(Path(root, "perfbench"))]
    import workloads

    import revolutio.cli as cli

    reports = {argv: path for path, argv in extra_reports(workloads).items()}
    for call in invocations(workloads, args.seeds):
        print(digest_line(cli, call, root, reports.get(call)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
