"""Run one ``sqzbudget`` command with spans recorded, for a traced cli_cold pass.

Usage: ``python trace_child.py SPANS.npz <sqzbudget arguments>``.  Behaves like
``python -m sqzbudget``; the spans, with the import of ``sqzbudget.cli`` as
the first, are written to SPANS.npz when the command ends.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import sqzbudget.cli  # noqa: E402  (timed before anything else is imported)
t1 = perf_counter()

import tracer  # noqa: E402


def main():
    t = tracer.Tracer()
    t.record("import.sqzbudget.cli", t0, t1)
    tracer.install(t)
    try:
        return sqzbudget.cli.entry(sys.argv[2:])
    finally:
        t.save(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
