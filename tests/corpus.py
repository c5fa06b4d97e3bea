"""A seeded corpus of CLI commands whose outputs pin the program's behaviour.

:func:`outputs` writes the corpus scenario files into a folder and runs every
command in-process through ``cli.entry``.  :func:`lines` gives one line per
output: the exit code, the sha256 of stdout and of stderr, and a command id.
The id is the argv with each scenario path cut to its file name, so it is
the same wherever the folder is.  ``scripts/make_goldens.py`` writes these
lines to ``tests/golden/corpus.txt`` and ``tests/test_corpus.py`` compares
them.

The commands are:

- generated chains: both source modes, each with ``escape_eta`` or the
  ``(t_out, loss_rt)`` pair; no cavity, either cavity or both in either
  order; each cavity given by ``length_m``, ``fsr_mhz`` or ``hwhm_mhz``.
  Each is run as ``budget``, as ``spectrum`` on its own 21-point grid and
  on a 401-point band, which may reach past a cavity's fsr/4;
- the bundled scenarios, run the same three ways;
- a few sweeps, one of them refused;
- copies of the bundled scenarios with one to three whole lines dropped,
  duplicated, swapped or truncated, which pin exit codes and error lines;
- copies of the bundled scenarios with one number set to an extreme value:
  each number in turn takes each of EXTREMES, and ``points`` each of
  EXTREME_POINTS (none of which builds a grid past 2049 points).

The generators are seeded and use only :mod:`random`, so the corpus changes
only when this file or the program does.
"""

import contextlib
import hashlib
import importlib.resources
import io
import random
import re
import warnings

from sqzbudget.chain import CATEGORIES
from sqzbudget.cli import entry

CAVITY_ORDERS = ((), ("filter_cavity",), ("src",), ("filter_cavity", "src"), ("src", "filter_cavity"))
CAVITY_FORMS = ("length_m", "fsr_mhz", "hwhm_mhz")
SHAPES = [(mode, escape, cavities) for mode in ("direct", "physical")
          for escape in ("escape_eta", "t_out") for cavities in CAVITY_ORDERS]
GENERATED = 180  # a multiple of len(SHAPES), so every shape meets every cavity form
MUTANTS = 100
BUNDLED = ("tabletop", "geo600", "vacuum")
SWEEPS = (
    ["--input-db", "5.7"],
    ["--input-db", "10", "--eta-min", "0.3", "--eta-max", "0.95", "--points", "101"],
    ["--input-db", "13", "--eta-min", "0", "--eta-max", "1", "--points", "2"],
    ["--input-db", "-3", "--eta-min", "0.8", "--eta-max", "0.8", "--points", "5"],
    ["--input-db", "10", "--eta-min", "0.9", "--eta-max", "0.5"],
)
# zeros of both signs, the smallest subnormal and normal, the float just below 1,
# the edge of float range and the two non-finite spellings
EXTREMES = ("0", "-0", "5e-324", "2.2e-308", "0.9999999999999999", "1e308", "inf", "nan")
# no grid, one point, one chunk, one point past it, and the largest int64
EXTREME_POINTS = ("0", "1", "2048", "2049", str(2**63 - 1))
NUMBER_LINE = re.compile(r"(\w+ = )(-?\d[\w.+-]*)(.*\n)")  # key = number, then " @ category" or nothing


def _cavity_section(rng, role, form):
    lines = [f"[{role}]", f"t_in = {round(rng.uniform(0.02, 0.2), 4)}"]
    if rng.random() < 0.6:
        lines.append(f"loss_rt = {round(rng.uniform(0.0005, 0.005), 5)}")
    lines.append(f"detuning_mhz = {round(rng.uniform(-12.0, 12.0), 3)}")
    value = {"length_m": rng.uniform(0.3, 3.0), "fsr_mhz": rng.uniform(40.0, 400.0),
             "hwhm_mhz": rng.uniform(0.3, 5.0)}[form]
    return lines + [f"{form} = {round(value, 4)}", ""]


def generated_scenario(rng, index):
    """The .scn text of generated chain number index."""
    mode, escape, cavities = SHAPES[index % len(SHAPES)]
    out = ["[source]", f"mode = {mode}"]
    if mode == "direct":
        out.append(f"gen_db_at_dc = {round(rng.uniform(1.0, 15.0), 3)}")
    else:
        out.append(f"classical_gain = {round(rng.uniform(1.5, 40.0), 3)}")
    out.append(f"bandwidth_mhz = {round(rng.uniform(3.0, 60.0), 3)}")
    if escape == "escape_eta":
        out.append(f"escape_eta = {round(rng.uniform(0.6, 1.0), 4)}")
    else:
        out.append(f"t_out = {round(rng.uniform(0.02, 0.2), 4)}")
        out.append(f"loss_rt = {round(rng.uniform(0.0, 0.02), 5)}")
    out.append("")
    for k, role in enumerate(cavities):
        form = CAVITY_FORMS[(index // len(SHAPES) + k) % len(CAVITY_FORMS)]
        out += _cavity_section(rng, role, form)
    losses = [f"loss_{k} = {round(rng.uniform(0.85, 0.999), 4)} @ {rng.choice(CATEGORIES)}"
              for k in range(rng.randint(0, 6))]
    at = 0
    for role in cavities:  # in chain order, at random places among the losses
        at = rng.randint(at, len(losses))
        losses.insert(at, f"{role} = @cavity")
        at += 1
    out += ["[losses]", *losses, ""]
    out += ["[detection]", f"homodyne_angle = {round(rng.uniform(-0.4, 0.4), 4)}", ""]
    fmin = round(rng.uniform(0.1, 8.0), 3)
    out += ["[grid]", f"fmin_mhz = {fmin}", f"fmax_mhz = {round(fmin + rng.uniform(1.0, 15.0), 3)}",
            "points = 21"]
    return "\n".join(out) + "\n"


def mutated_scenario(rng, text):
    """text with one to three whole lines dropped, duplicated, swapped or truncated."""
    lines = text.splitlines(keepends=True)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        edit = rng.choice(("drop", "duplicate", "swap", "truncate"))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(j, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = lines[i][:rng.randrange(len(lines[i]))] + "\n"
    return "".join(lines)


def extreme_scenarios(text):
    """(line number, value, text) for text with one number replaced by one extreme value."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        match = NUMBER_LINE.fullmatch(line)
        if match is None:
            continue
        for value in EXTREME_POINTS if match[1] == "points = " else EXTREMES:
            if value != match[2]:
                yield i + 1, value, "".join([*lines[:i], match[1] + value + match[3], *lines[i + 1:]])


def _band(rng):
    fmin = round(rng.uniform(0.05, 10.0), 3)
    return ["--fmin-mhz", str(fmin), "--fmax-mhz", str(round(fmin + rng.uniform(1.0, 40.0), 3)),
            "--points", "401"]


def commands(folder):
    """The argv of each command, naming each scenario by its file name in folder.

    Each scenario file is written into folder before its first command.
    """
    def write(name, text):
        (folder / name).write_text(text, encoding="utf-8")
        return name

    scenarios = []
    bundled = {}
    for name in BUNDLED:
        path = importlib.resources.files("sqzbudget") / "scenarios" / f"{name}.scn"
        bundled[name] = path.read_text(encoding="utf-8")
        scenarios.append(write(f"{name}.scn", bundled[name]))
    rng = random.Random("corpus: generated chains")
    scenarios += [write(f"gen{i:03d}.scn", generated_scenario(rng, i)) for i in range(GENERATED)]
    band_rng = random.Random("corpus: bands")
    for name in scenarios:
        for argv in (["budget", name], ["spectrum", name], ["spectrum", name, *_band(band_rng)]):
            yield argv
    for options in SWEEPS:
        yield ["sweep", *options]
    rng = random.Random("corpus: line edits")
    for i in range(MUTANTS):
        source = BUNDLED[i % 2]  # tabletop and geo600; vacuum is tabletop with the pump off
        name = write(f"{source}_edit{i:03d}.scn", mutated_scenario(rng, bundled[source]))
        yield ["budget", name]
        yield ["spectrum", name]
    for source in BUNDLED[:2]:
        for number, value, text in extreme_scenarios(bundled[source]):
            name = write(f"{source}_line{number:02d}_{value}.scn", text)
            yield ["budget", name]
            yield ["spectrum", name]


def run(argv):
    """Exit code, stdout and stderr of one in-process command.

    Warnings are errors, so a leaked warning shows as a changed line.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = entry(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def outputs(folder):
    """(command id argv, exit code, stdout, stderr) of each command, run in folder."""
    for argv in commands(folder):
        yield argv, *run([argv[0], *(str(folder / a) if a.endswith(".scn") else a
                                     for a in argv[1:])])


def line(argv, code, out, err):
    """The corpus line of one output: exit code, stdout digest, stderr digest, command id."""
    out_digest, err_digest = (hashlib.sha256(s.encode()).hexdigest() for s in (out, err))
    return f"{code} {out_digest} {err_digest} {' '.join(argv)}"


def lines(folder):
    """One corpus line per command."""
    return [line(*output) for output in outputs(folder)]
