"""Command-line interface: budget tables, spectrum CSVs, efficiency sweeps.

Exit codes: 0 success, 2 parse or usage error (or a grid too large to allocate),
3 physically invalid model; each of these, a usage error too, prints one
``error:`` line on stderr.  A stdout closed by its reader (``| head``) ends
the command with exit 1 and no message.
All frequencies on the command line and in output are MHz; dB values are
printed with 2 decimals in tables and 6 decimals in CSV.  ``entry(argv, out=...)``
may be called repeatedly; the parser is built once, and each call finds its command by name.

``budget`` and ``sweep`` are scalar arithmetic on floats and never import
numpy; ``spectrum`` computes and formats the grid CHUNK_POINTS rows at a
time, and prints nothing until every chunk has passed.
"""

import argparse
import functools
import os
import sys

from . import chain, interferometer
from .quadcore import UnphysicalError
from .scenario_io import load_scenario

CHUNK_POINTS = 2048  # grid points that ``spectrum`` computes and formats together


def _csv_lines(columns):
    """CSV text with one line per row of the given columns, sequences of floats.

    Numbers are fixed-point with six decimals, rounded half to even like
    ``round``; a value that rounds to zero prints without a minus sign.
    """
    line = ",".join(["%.6f"] * len(columns)) + "\n"
    rows = zip(*columns)
    # %.6f always prints six decimals, so "-0.000000" can only be a whole field
    return "".join([line % row for row in rows]).replace("-0.000000", "0.000000")


def format_budget(report):
    """Aligned text table for a BudgetReport."""
    rows = [(r.name, r.category, f"{r.eta:.4f}") for r in report.rows]
    name_w = max(len("element"), *(len(r[0]) for r in rows))
    cat_w = max(len("category"), *(len(r[1]) for r in rows))
    lines = [f"loss budget: {report.scenario}", ""]
    lines.append(f"{'element':<{name_w}}  {'category':<{cat_w}}     eta")
    for name, cat, eta in rows:
        lines.append(f"{name:<{name_w}}  {cat:<{cat_w}}  {eta}")
    lines.append("")
    for cat, sub in report.subtotals:
        lines.append(f"subtotal {cat:<{cat_w}}  {sub:.4f}")
    lines.append("")
    lines.append(f"total efficiency  {report.total:.4f}")
    lines.append(f"input squeezing   {report.input_db:.2f} dB")
    lines.append(f"output squeezing  {report.output_db:.2f} dB")
    return "\n".join(lines) + "\n"


def cmd_budget(args, out):
    sc = load_scenario(args.scenario)
    out.write(format_budget(chain.build_budget(sc)))
    return 0


def cmd_spectrum(args, out):
    sc = load_scenario(args.scenario)
    freqs = chain.FrequencyGrid(
        fmin_hz=(args.fmin_mhz * 1e6 if args.fmin_mhz is not None else sc.grid.fmin_hz),
        fmax_hz=(args.fmax_mhz * 1e6 if args.fmax_mhz is not None else sc.grid.fmax_hz),
        points=(args.points if args.points is not None else sc.grid.points),
    ).frequencies()
    chunks = ["frequency_mhz,noise_db,signal_db,snr_improvement_db\n"]
    for start in range(0, freqs.size, CHUNK_POINTS):
        ns = interferometer.snr_spectrum(sc, freqs[start:start + CHUNK_POINTS])
        columns = (ns.frequency_hz / 1e6, ns.noise_db, ns.signal_db, ns.snr_improvement_db)
        chunks.append(_csv_lines([c.tolist() for c in columns]))
    out.writelines(chunks)
    return 0


def cmd_sweep(args, out):
    points = chain.efficiency_sweep(args.input_db, args.eta_min, args.eta_max, args.points)
    out.write("eta,observed_db\n")
    out.write(_csv_lines(tuple(zip(*points))))
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises a usage error, for entry to report on one line."""

    def error(self, message):
        # argparse quotes an unrecognized argument as given, line breaks and all
        raise ValueError(f"{self.prog}: " + "\\n".join(message.splitlines()))


@functools.cache
def build_parser():
    parser = _Parser(
        prog="sqzbudget",
        description="Loss budgets and quantum-noise spectra for squeezed-light setups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_budget = sub.add_parser("budget", help="print the loss budget of a scenario file")
    p_budget.add_argument("scenario", help="scenario file (.scn)")

    p_spec = sub.add_parser("spectrum", help="print noise/signal/SNR spectra as CSV")
    p_spec.add_argument("scenario", help="scenario file (.scn)")
    p_spec.add_argument("--fmin-mhz", type=float, default=None)
    p_spec.add_argument("--fmax-mhz", type=float, default=None)
    p_spec.add_argument("--points", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="observed squeezing versus detection efficiency")
    p_sweep.add_argument("--input-db", type=float, required=True)
    p_sweep.add_argument("--eta-min", type=float, default=0.5)
    p_sweep.add_argument("--eta-max", type=float, default=1.0)
    p_sweep.add_argument("--points", type=int, default=51)
    return parser


def entry(argv=None, out=None):
    """Console entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)  # subparsers inherit _Parser
        command = {"budget": cmd_budget, "spectrum": cmd_spectrum, "sweep": cmd_sweep}
        return command[args.command](args, out)
    except UnphysicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the reader left; on devnull the exit flush cannot fail
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), out.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as exc:  # ScenarioParseError is a ValueError
        # a MemoryError that Python itself raises carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main():
    sys.exit(entry())


if __name__ == "__main__":
    main()
