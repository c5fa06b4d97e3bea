"""The three benchmark workloads.

Each workload is single-process, single-threaded and closed-loop: an
operation starts when the previous one has finished.  ``run_pass`` runs one
pass and returns one ``(seconds, ok)`` pair per operation; only the calls
into the program are timed, and outputs are checked after each call.

spectrum_dense
    The bundled tabletop chain as one 20,001-point ``spectrum`` through
    ``cli.entry`` in-process.  Per-frequency work dominates; this is where
    kernel and frequency-axis changes show.
design_scan
    80 generated scenarios, each written as ``.scn`` text and run through
    ``cli.entry`` as ``budget`` and then a 21-point ``spectrum``.  Per-call
    costs (parsing, rate derivation, building the Scenario, array set-up)
    weigh as much as per-point work, so changes that add fixed cost show.
cli_cold
    The eight commands recorded in ``tests/golden/``, each in a fresh
    interpreter.  Process start and import dominate; this is where
    import-time work shows.
"""

import io
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

TABLETOP = "src/sqzbudget/scenarios/tabletop.scn"
CATEGORIES = ("escape", "mode_matching", "isolator_rotator", "photodiode", "intra_cavity", "other")
BENCH_DIR = Path(__file__).resolve().parent


class Context:
    """What every workload needs: the checkout, its seed, and the child environment."""

    def __init__(self, root, seed, env):
        self.root = root
        self.seed = seed
        self.env = env
        self.out_dir = root / ".bench_out"
        self.errors = []

    def fail(self, message):
        if len(self.errors) < 5:
            self.errors.append(message)
        return False


def _cli():
    # looked up per call so a traced run goes through the wrappers
    from sqzbudget import cli
    return cli


def _entry(ctx, argv):
    """Run the CLI in-process; (seconds, exit code or None, stdout text)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        code = _cli().entry(argv, out=out)
    except Exception as exc:  # a warning raised as an error, or a crash
        ctx.fail(f"{argv}: {exc!r}")
        code = None
    return time.perf_counter() - t0, code, out.getvalue()


class SpectrumDense:
    name = "spectrum_dense"
    points = 20001

    def __init__(self, ctx):
        self.ctx = ctx
        if ctx.seed == 0:
            fmin, fmax = 5.0, 15.0
        else:
            # tabletop cavities: detuning 10 MHz, fsr/4 = 31 MHz, so fmax < 21 MHz
            rng = random.Random(ctx.seed)
            fmin = round(rng.uniform(1.0, 8.0), 3)
            fmax = round(fmin + rng.uniform(6.0, 12.0), 3)
        self.band = (fmin * 1e6, fmax * 1e6)
        self.argv = ["spectrum", TABLETOP, "--fmin-mhz", repr(fmin), "--fmax-mhz", repr(fmax),
                     "--points", str(self.points)]
        self.first_scenario = TABLETOP
        self.points_per_pass = self.points
        self.scenarios_per_pass = 1
        self.rows_per_pass = self.points + 1
        self.expected = None

    def warm(self):
        _entry(self.ctx, ["spectrum", TABLETOP, "--points", "201"])

    def _check(self, text):
        sections = reference.read_scn((self.ctx.root / TABLETOP).read_text(encoding="utf-8"))
        why = reference.check_csv(text, sections, *self.band, self.points)
        if why is None and self.ctx.seed == 0:
            golden = (self.ctx.root / "tests/golden/tabletop_spectrum.csv").read_text(encoding="utf-8")
            lines, want = text.splitlines(), golden.splitlines()
            if [lines[0]] + lines[1::100] != want:
                why = "every 100th row differs from tests/golden/tabletop_spectrum.csv"
        return why

    def run_pass(self):
        dt, code, text = _entry(self.ctx, self.argv)
        if code != 0:
            return [(dt, self.ctx.fail(f"{self.argv}: exit {code}"))]
        if text != self.expected:  # the same text already passed the check
            why = self._check(text)
            if why is not None:
                return [(dt, self.ctx.fail(f"spectrum_dense: {why}"))]
            self.expected = text
        return [(dt, True)]


def _cavity_section(rng):
    detuning = round(rng.uniform(-12.0, 12.0), 3)
    lines = [f"t_in = {round(rng.uniform(0.02, 0.2), 4)}"]
    if rng.random() < 0.5:
        lines.append(f"loss_rt = {round(rng.uniform(0.0005, 0.005), 5)}")
    lines.append(f"detuning_mhz = {detuning}")
    # grids end below 20 MHz and fsr >= 150 MHz, so every sideband stays
    # below fsr/4: |f| + |detuning| <= 32 MHz < 37.5 MHz
    kind = rng.randrange(3)
    if kind == 0:
        lines.append(f"length_m = {round(rng.uniform(0.3, 1.0), 4)}")
    elif kind == 1:
        lines.append(f"fsr_mhz = {round(rng.uniform(150.0, 400.0), 3)}")
    else:
        lines.append(f"hwhm_mhz = {round(rng.uniform(0.5, 5.0), 4)}")
    return lines


def make_scenario(rng, cavities, mode, n_losses):
    """One generated scenario as .scn text.

    ``cavities`` is a subset of ("filter_cavity", "src"); the chain has
    ``n_losses`` loss elements with the cavity markers at random places.
    """
    fmin = round(rng.uniform(0.5, 8.0), 3)
    fmax = round(fmin + rng.uniform(2.0, 12.0), 3)
    out = ["# generated scenario", "[source]", f"mode = {mode}"]
    if mode == "direct":
        out.append(f"gen_db_at_dc = {round(rng.uniform(3.0, 15.0), 3)}")
    else:
        out.append(f"classical_gain = {round(rng.uniform(2.0, 40.0), 3)}")
    out.append(f"bandwidth_mhz = {round(rng.uniform(5.0, 60.0), 3)}")
    if rng.random() < 0.5:
        out.append(f"escape_eta = {round(rng.uniform(0.85, 0.99), 4)}")
    else:
        out.append(f"t_out = {round(rng.uniform(0.05, 0.2), 4)}")
        out.append(f"loss_rt = {round(rng.uniform(0.001, 0.02), 5)}")
    for section in cavities:
        out += ["", f"[{section}]"] + _cavity_section(rng)
    chain = [f"loss_{k} = {round(rng.uniform(0.9, 0.999), 4)} @ {rng.choice(CATEGORIES)}"
             for k in range(n_losses)]
    for section in cavities:
        chain.insert(rng.randrange(len(chain) + 1), f"{section} = @cavity")
    out += ["", "[losses]"] + chain
    out += ["", "[detection]", f"homodyne_angle = {round(rng.uniform(-0.3, 0.3), 4)}"]
    out += ["", "[grid]", f"fmin_mhz = {fmin}", f"fmax_mhz = {fmax}", "points = 21"]
    return "\n".join(out) + "\n"


class DesignScan:
    name = "design_scan"
    # every (cavity set, source mode) pair equally often and 3..12 losses in
    # each, so the work in a pass hardly depends on the seed
    shapes = [(cavs, mode) for cavs in ((), ("filter_cavity",), ("src",), ("filter_cavity", "src"))
              for mode in ("direct", "physical")]
    count = 80

    def __init__(self, ctx):
        self.ctx = ctx
        rng = random.Random(ctx.seed)
        texts = [make_scenario(rng, *self.shapes[i % len(self.shapes)], 3 + (i // len(self.shapes)) % 10)
                 for i in range(self.count)]
        rng.shuffle(texts)
        scn_dir = ctx.out_dir / "design_scan"
        scn_dir.mkdir(parents=True, exist_ok=True)
        for old in scn_dir.glob("*.scn"):
            old.unlink()
        self.scenarios = []
        for i, text in enumerate(texts):
            path = scn_dir / f"scenario_{i:03d}.scn"
            path.write_text(text, encoding="utf-8")
            self.scenarios.append((str(path.relative_to(ctx.root)), text))
        self.first_scenario = self.scenarios[0][0]
        self.points_per_pass = 21 * self.count
        self.scenarios_per_pass = self.count
        self.rows_per_pass = None  # counted from the outputs
        self.expected = {}
        self.bad = {i for i, (_, text) in enumerate(self.scenarios) if not self._round_trips(text)}

    def _round_trips(self, text):
        from sqzbudget.scenario_io import format_scenario, parse_scenario

        try:
            sc = parse_scenario(text)
            same = parse_scenario(format_scenario(sc)) == sc
        except Exception as exc:  # counted as a failure like any other check
            return self.ctx.fail(f"round trip raised {exc!r}:\n{text}")
        return same or self.ctx.fail(f"format_scenario -> parse_scenario changed the scenario:\n{text}")

    def warm(self):
        for path, _ in self.scenarios[:len(self.shapes)]:
            _entry(self.ctx, ["budget", path])
            _entry(self.ctx, ["spectrum", path])

    def _check(self, text, budget, spectrum):
        sections = reference.read_scn(text)
        return (reference.check_budget(budget, sections)
                or reference.check_csv(spectrum, sections, *reference.grid(sections)))

    def run_pass(self):
        ops = []
        self.rows_per_pass = 0
        for i, (path, text) in enumerate(self.scenarios):
            t_budget, c_budget, budget = _entry(self.ctx, ["budget", path])
            t_spec, c_spec, spectrum = _entry(self.ctx, ["spectrum", path])
            if i in self.bad:
                ok = False
            elif c_budget != 0 or c_spec != 0:
                ok = self.ctx.fail(f"{path}: exit codes {c_budget}, {c_spec}")
            elif self.expected.get(i) == (budget, spectrum):
                ok = True  # the same text already passed the reference check
            else:
                why = self._check(text, budget, spectrum)
                ok = why is None or self.ctx.fail(f"{path}: {why}")
                if ok:
                    self.expected[i] = (budget, spectrum)
            self.rows_per_pass += budget.count("\n") + spectrum.count("\n")
            ops.append((t_budget + t_spec, ok))
        return ops


GOLDEN_COMMANDS = {
    "tabletop_budget.txt": ["budget", "src/sqzbudget/scenarios/tabletop.scn"],
    "geo600_budget.txt": ["budget", "src/sqzbudget/scenarios/geo600.scn"],
    "tabletop_spectrum.csv": ["spectrum", "src/sqzbudget/scenarios/tabletop.scn"],
    "geo600_spectrum.csv": ["spectrum", "src/sqzbudget/scenarios/geo600.scn"],
    "vacuum_spectrum.csv": ["spectrum", "src/sqzbudget/scenarios/vacuum.scn"],
    "sweep_input_5.7.csv": ["sweep", "--input-db", "5.7"],
    "sweep_input_10.csv": ["sweep", "--input-db", "10"],
    "sweep_input_13.csv": ["sweep", "--input-db", "13"],
}


def run_child(argv, env, cwd, timeout=60.0):
    """Run a process to completion: (seconds, exit code, stdout+stderr bytes, peak RSS in MB).

    Reaped with wait4 so the peak RSS is this child's own; killed after `timeout`.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out, usage.ru_maxrss / 1024.0


class CliCold:
    name = "cli_cold"

    def __init__(self, ctx):
        self.ctx = ctx
        self.rng = random.Random(ctx.seed)
        self.golden = {name: (ctx.root / "tests/golden" / name).read_bytes() for name in GOLDEN_COMMANDS}
        self.order = list(GOLDEN_COMMANDS)
        self.rng.shuffle(self.order)
        self.first_scenario = next(GOLDEN_COMMANDS[n][1] for n in self.order
                                   if GOLDEN_COMMANDS[n][0] != "sweep")
        self.points_per_pass = sum(self.golden[n].count(b"\n") - 1 for n in GOLDEN_COMMANDS
                                   if GOLDEN_COMMANDS[n][0] == "spectrum")
        self.scenarios_per_pass = sum(1 for a in GOLDEN_COMMANDS.values() if a[0] != "sweep")
        self.rows_per_pass = sum(g.count(b"\n") for g in self.golden.values())
        self.peak_rss_mb = 0.0
        self.trace_dir = None  # set for a traced run: children write their spans here
        self.invocations = 0
        for name, (command, *args) in GOLDEN_COMMANDS.items():
            if command == "spectrum":
                sections = reference.read_scn((ctx.root / args[0]).read_text(encoding="utf-8"))
                why = reference.check_csv(self.golden[name].decode(), sections, *reference.grid(sections))
                if why is not None:
                    raise RuntimeError(f"tests/golden/{name} disagrees with the reference: {why}")

    def warm(self):
        run_child([sys.executable, "-m", "sqzbudget", *GOLDEN_COMMANDS[self.order[0]]],
                  self.ctx.env, self.ctx.root)

    def _argv(self, name):
        if self.trace_dir is None:
            return [sys.executable, "-W", "error", "-m", "sqzbudget", *GOLDEN_COMMANDS[name]]
        self.invocations += 1
        spans = self.trace_dir / f"invocation_{self.invocations:04d}.npz"
        return [sys.executable, "-W", "error", str(BENCH_DIR / "trace_child.py"), str(spans),
                *GOLDEN_COMMANDS[name]]

    def run_pass(self):
        self.rng.shuffle(self.order)
        ops = []
        for name in self.order:
            dt, code, out, rss = run_child(self._argv(name), self.ctx.env, self.ctx.root)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            ok = (code == 0 and out == self.golden[name]) or self.ctx.fail(
                f"{GOLDEN_COMMANDS[name]}: exit {code}, output differs from tests/golden/{name}:\n"
                f"{out[-500:].decode(errors='replace')}")
            ops.append((dt, ok))
        return ops


WORKLOADS = {w.name: w for w in (SpectrumDense, DesignScan, CliCold)}
