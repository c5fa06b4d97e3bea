"""Command-line interface: budget tables, spectrum CSVs, efficiency sweeps.

Exit codes: 0 success, 2 parse or usage error (or a grid too large to allocate),
3 physically invalid model; each of these, a usage error too, prints one
``error:`` line on stderr.  A stdout closed by its reader (``| head``) ends
the command with exit 1 and no message.
All frequencies on the command line and in output are MHz; dB values are
printed with 2 decimals in tables and 6 decimals in CSV.  ``entry(argv, out=...)``
may be called repeatedly; the parser is built once, and each call finds its command by name.

``budget`` and ``sweep`` are scalar arithmetic on floats and never import
numpy.  ``spectrum`` on a grid of at most CHUNK_POINTS (2048) points is one
walk over plain floats with :mod:`math` (``interferometer._spectrum_rows``),
so it starts without numpy too.  A longer grid is computed and formatted on
numpy arrays, CHUNK_POINTS rows at a time, and nothing is printed until every
chunk has passed.  Each chunk's CSV is written into one numpy byte buffer
(``_csv_array``), not by one ``%`` per row.  It is byte-identical to
``_csv_lines``, whose ``%.6f`` rounds the exact binary value half to even:
the buffer rounds a·10^6 exactly (``_csv_array`` says why).  Any chunk whose
values lie below 1000 in magnitude, ties or none, runs the same array
operations, so the chunks of a spectrum cost about the same whatever its
band.  A chunk holding a value of magnitude 1e9 or more (MHz frequencies of
a cavity-free chain) goes through ``_csv_lines`` whole, as ``sweep`` and the
walk do.

Every error of ``spectrum`` is named by the array path:
the walk formats no message, and where any check would fail it gives up, the
grid is computed again on arrays, which run each check over the whole grid
before the next, and that error is the one printed (numpy loads only then).
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


@functools.cache
def _digit_words():
    """The numbers 0-999 as ASCII in little-endian uint32 words, three ways.

    ".ddd"; "ddd" then a NUL; and a NUL then the number without leading
    zeros, right-aligned in the other three bytes.
    """
    import numpy as np

    n = np.arange(1000, dtype=np.uint32)
    ddd = (48 + n // 100) | (48 + n // 10 % 10) << 8 | (48 + n % 10) << 16
    bare = (np.where(n >= 100, 48 + n // 100, 0) << 8 | np.where(n >= 10, 48 + n // 10 % 10, 0) << 16
            | (48 + n % 10) << 24)
    return ddd << 8 | ord("."), ddd, bare


def _csv_array(columns):
    """``_csv_lines`` of float arrays of one length, written into one numpy byte buffer.

    A value x of magnitude a < 1e9 prints as k = a·10^6 rounded half to even,
    which is what ``%.6f`` does.  r = fl(a·1e6) < 2^52, where every
    half-integer is a double, and rounding is monotone, so ``rint(r)`` is
    that k unless r is itself a half-integer.  For those the exact error
    a·1e6 - r comes from a Veltkamp split of a (1e6 has 14 significant bits,
    so both partial products are exact), and its sign rounds r up or down;
    an error of zero is a true tie and keeps ``rint``'s half to even.  The
    correction runs on every block, tied values or none, so its cost hardly
    depends on how many there are.  Each field of the buffer is whole uint32
    words: the sign and the integer digits in groups of three, one word per
    group (one word for every |x| < 1000), then ".ddd", "ddd" and the
    separator, all looked up in ``_digit_words``.  Unused bytes stay NUL and
    are dropped at the end.  Any |x| >= 1e9 or non-finite value sends the
    whole block through ``_csv_lines``.
    """
    import numpy as np

    x = np.stack(columns, axis=1)
    a = np.abs(x)
    if not (a < 1e9).all():
        return _csv_lines([c.tolist() for c in columns])
    r = a * 1e6
    k = np.rint(r)
    ties = np.flatnonzero(np.abs(r - k) == 0.5)
    at, rt = a.ravel()[ties], r.ravel()[ties]
    hi = 134217729.0 * at  # 2^27 + 1 splits off the upper 26 bits of at
    hi -= hi - at
    err = (hi * 1e6 - rt) + (at - hi) * 1e6
    k.ravel()[ties] = np.rint(rt + 0.5 * np.sign(err))  # the sign of err, or rint's tie rule
    whole = np.floor(k / 1e6)  # exact: k < 2^50, and k/1e6 cannot round up to the next integer
    frac = (k - whole * 1e6).astype(np.int32)
    whole = whole.astype(np.int32)
    top = int(whole.max(initial=0))
    groups = 1 + (top >= 1000) + (top >= 1000000) + (top >= 1000000000)  # k rounds up to 10^15
    rows, fields = x.shape
    words = np.empty((rows, fields, groups + 2), np.uint32)  # every word is written below
    dot_ddd, ddd, bare = _digit_words()
    high = frac // 1000
    ends = np.full(fields, ord(","), np.uint32)
    ends[-1] = ord("\n")
    words[:, :, -2] = dot_ddd.take(high)
    words[:, :, -1] = ddd.take(frac - high * 1000) | ends << 24
    rest = whole
    for g in range(groups - 1, 0, -1):  # the groups below the leading one, lowest first
        above = rest // 1000
        n = rest - above * 1000
        word = np.where(above != 0, ddd.take(n) << 8, bare.take(n))  # zeros only after a digit
        words[:, :, g] = word if g == groups - 1 else np.where(rest != 0, word, 0)
        rest = above
    lead = bare.take(rest) if groups == 1 else np.where(rest != 0, bare.take(rest), 0)
    words[:, :, 0] = lead | ((x < 0) & (k != 0)) * np.uint32(ord("-"))  # no minus sign on a zero
    flat = words.view(np.uint8).ravel()
    return str(flat[flat != 0], "ascii")


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


def _columns(ns):
    """The CSV columns of a NoiseSpectrum: frequency in MHz, then noise, signal and SNR in dB."""
    return ns.frequency_hz / 1e6, ns.noise_db, ns.signal_db, ns.snr_improvement_db


def _spectrum_csv(sc, grid):
    """The CSV rows of the grid's spectrum, as a list of text chunks (see the module docstring)."""
    if grid.points <= CHUNK_POINTS:
        rows = interferometer._spectrum_rows(sc, grid)
        if rows is not None:
            return [_csv_lines(tuple(zip(*rows)))]
    freqs = grid.frequencies()
    return [_csv_array(_columns(interferometer.snr_spectrum(sc, freqs[start:start + CHUNK_POINTS])))
            for start in range(0, freqs.size, CHUNK_POINTS)]


def cmd_spectrum(args, out):
    sc = load_scenario(args.scenario)
    grid = chain.FrequencyGrid(
        fmin_hz=(args.fmin_mhz * 1e6 if args.fmin_mhz is not None else sc.grid.fmin_hz),
        fmax_hz=(args.fmax_mhz * 1e6 if args.fmax_mhz is not None else sc.grid.fmax_hz),
        points=(args.points if args.points is not None else sc.grid.points),
    )
    out.writelines(["frequency_mhz,noise_db,signal_db,snr_improvement_db\n",
                    *_spectrum_csv(sc, grid)])
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
