"""Regenerate the revolutio/1 reports that the mesh workloads read.

Run from the repository root:

    python3 perfbench/regen_reports.py

Each report is the stdout of one ``revolutio`` command, written to
``perfbench/reports/<name>.json``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from revolutio.cli import main  # noqa: E402

REPORTS = {
    "paraboloid": ["analyze", "--implicit", "x^2+y^2-z"],
    "one_sheet_sqrt2": ["analyze", "--p2", "t^2+2", "t"],
    "cubic_sqrt3": ["analyze", "--implicit", "x^2+y^2-z^3-1"],
    "double_cover": ["analyze", "--implicit", "x^2+y^2-z^2+1"],
    "quadric_sqrt13": ["quadric", "--implicit", "3*x^2+y^2-z^2-1"],
    "cone_beta": ["analyze", "--p2", "(t^2-2)^2", "t"],
}


def regenerate() -> None:
    out_dir = BENCH_DIR / "reports"
    out_dir.mkdir(exist_ok=True)
    for name, argv in REPORTS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{name}: {' '.join(argv)} exited with {code}")
        (out_dir / f"{name}.json").write_text(buf.getvalue())
        print(f"wrote reports/{name}.json", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
