#!/usr/bin/env python3
"""Regenerate the recorded CLI outputs under tests/golden/.

The regression tests compare CLI output byte-for-byte against these files,
so rerun this script only when an output format or model change is
intentional, and review the diff.  Besides the eight full outputs it writes
``corpus.txt``: the exit code and the stdout and stderr digests of each
command of the seeded corpus in ``tests/corpus.py``.
"""

import io
import pathlib
import sys
import tempfile

from sqzbudget.cli import entry

REPO = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "src" / "sqzbudget" / "scenarios"
GOLDEN = REPO / "tests" / "golden"

sys.path.insert(0, str(REPO / "tests"))
import corpus  # tests/corpus.py, found through the path set above


def run(argv):
    out = io.StringIO()
    code = entry(argv, out=out)
    if code != 0:
        raise SystemExit(f"command {argv} failed with exit code {code}")
    return out.getvalue()


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    outputs = {
        "tabletop_budget.txt": ["budget", str(SCENARIOS / "tabletop.scn")],
        "geo600_budget.txt": ["budget", str(SCENARIOS / "geo600.scn")],
        "tabletop_spectrum.csv": ["spectrum", str(SCENARIOS / "tabletop.scn")],
        "geo600_spectrum.csv": ["spectrum", str(SCENARIOS / "geo600.scn")],
        "vacuum_spectrum.csv": ["spectrum", str(SCENARIOS / "vacuum.scn")],
        "sweep_input_5.7.csv": ["sweep", "--input-db", "5.7"],
        "sweep_input_10.csv": ["sweep", "--input-db", "10"],
        "sweep_input_13.csv": ["sweep", "--input-db", "13"],
    }
    for filename, argv in outputs.items():
        path = GOLDEN / filename
        path.write_text(run(argv), encoding="utf-8")
        print(f"wrote {path.relative_to(REPO)}")
    path = GOLDEN / "corpus.txt"
    with tempfile.TemporaryDirectory() as folder:
        lines = corpus.lines(pathlib.Path(folder))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(REPO)} ({len(lines)} commands)")


if __name__ == "__main__":
    main()
