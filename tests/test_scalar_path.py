"""``budget``, ``sweep`` and a one-chunk ``spectrum`` run on floats alone: numpy stays out, the numbers stay put.

The guard runs each command in a fresh ``python -W error`` interpreter and
reads ``sys.modules`` afterwards.  The library's spectrum kernels work on
numpy arrays; ``spectrum`` on a grid of at most ``cli.CHUNK_POINTS`` (2048)
points is one walk over plain floats with :mod:`math`
(``interferometer._spectrum_rows``), which names no error: a longer grid, or
one on which the walk gives up, is computed on arrays, and that array path
names every error.  The differentials hold the math-only paths to the numpy
formulas they stand in for: the sweep grid to ``numpy.linspace`` value for
value, the printed dB values digit for digit (``math.log10`` and
``numpy.log10`` differ in the last ulp on some inputs), and the walk of
``spectrum`` to its array path on seeded generated chains and on edits that
reach each of its checks, by exit code, stdout and the stderr line.
"""

import ast
import pathlib
import random

import numpy as np
import pytest

import corpus
from sqzbudget import interferometer
from sqzbudget.chain import FrequencyGrid, _linspace, efficiency_sweep, propagate
from sqzbudget.cli import CHUNK_POINTS, _csv_lines
from sqzbudget.interferometer import snr_spectrum
from sqzbudget.quadcore import UnphysicalError, apply_loss, db_to_variance, variance_to_db
from sqzbudget.scenario_io import parse_scenario

from conftest import bundled_scenario_path, first_difference, fresh_python, load_bundled

ROOT = pathlib.Path(__file__).resolve().parent.parent

# runs the command line given after -c as ``python -m sqzbudget`` does, then
# reports on the last line of stdout the exit code and whether numpy was loaded
RUN_CLI = """import runpy, sys
try:
    runpy.run_module("sqzbudget", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("module", ["sqzbudget", "sqzbudget.cli"])
def test_import_leaves_numpy_out(module):
    proc = fresh_python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def _array_csv(sc, freqs):
    """What ``spectrum`` prints for sc on freqs, from one snr_spectrum over the whole array."""
    ns = snr_spectrum(sc, freqs)
    columns = (ns.frequency_hz / 1e6, ns.noise_db, ns.signal_db, ns.snr_improvement_db)
    return ("frequency_mhz,noise_db,signal_db,snr_improvement_db\n"
            + _csv_lines([c.tolist() for c in columns]))


@pytest.mark.parametrize("argv,golden,numpy_loaded", [
    (["budget", bundled_scenario_path("tabletop")], "tabletop_budget.txt", False),
    (["sweep", "--input-db", "10"], "sweep_input_10.csv", False),
    # the guard sees numpy where it is loaded: a grid one point past a chunk
    (["spectrum", bundled_scenario_path("tabletop"), "--points", "2049"], None, True),
], ids=["budget", "sweep", "spectrum"])
def test_command_loads_numpy_only_for_spectrum(argv, golden, numpy_loaded, golden_dir):
    proc = fresh_python(RUN_CLI, *argv)
    assert proc.stderr == ""
    expected = ((golden_dir / golden).read_text(encoding="utf-8") if golden
                else _array_csv(load_bundled("tabletop"), np.linspace(5e6, 15e6, 2049)))
    assert first_difference(proc.stdout, expected + f"0 {numpy_loaded}\n") is None


@pytest.mark.parametrize("name", ["tabletop", "geo600", "vacuum"])
def test_cold_spectrum_of_one_chunk_leaves_numpy_out(name, golden_dir):
    proc = fresh_python(RUN_CLI, "spectrum", bundled_scenario_path(name))
    assert proc.stderr == ""
    expected = (golden_dir / f"{name}_spectrum.csv").read_text(encoding="utf-8")
    assert proc.stdout == expected + "0 False\n"


class _Walks:
    """Records how cmd_spectrum reads its grid: True for the walk, False for arrays.

    With ``walk=False`` the walk gives up at once, so the grid is computed on
    the array path alone, as after any walk that gives up.
    """

    def __init__(self, monkeypatch, walk=True):
        self.calls = []
        rows, frequencies = interferometer._spectrum_rows, FrequencyGrid.frequencies

        def walked(sc, grid):
            self.calls.append(True)
            return rows(sc, grid) if walk else None

        def arrays(grid):
            self.calls.append(False)
            return frequencies(grid)

        monkeypatch.setattr(interferometer, "_spectrum_rows", walked)
        monkeypatch.setattr(FrequencyGrid, "frequencies", arrays)

    def run(self, argv):
        self.calls.clear()
        return (*corpus.run(argv), tuple(self.calls))


@pytest.mark.parametrize("points", [CHUNK_POINTS, CHUNK_POINTS + 1])
def test_spectrum_either_side_of_one_chunk_prints_the_array_csv(points, tabletop, monkeypatch):
    walks = _Walks(monkeypatch)
    code, out, err, calls = walks.run(
        ["spectrum", bundled_scenario_path("tabletop"), "--points", str(points)])
    assert (code, err) == (0, "")
    assert first_difference(out, _array_csv(tabletop, np.linspace(5e6, 15e6, points))) is None
    assert calls == ((True,) if points <= CHUNK_POINTS else (False,))


# tabletop edits that each reach one check of the walk, and exit 3 with its own message
EDGES = [
    # the top point sits exactly at the filter cavity's fsr/4
    (("detuning_mhz = -10\nlength_m = 1.21", "detuning_mhz = 0\nfsr_mhz = 40"),
     ("fmax_mhz = 15\npoints = 201", "fmax_mhz = 10\npoints = 21")),
    # 1 - v0 rounds to 1, so V- is 0 at the bottom point
    (("gen_db_at_dc = 5.7", "gen_db_at_dc = 400"), ("fmin_mhz = 5", "fmin_mhz = 1e-14")),
    # hwhm^2 underflows, and the signal gain with it
    (("t_in = 0.1\nloss_rt = 0.003\ndetuning_mhz = 10\nlength_m = 1.21", "hwhm_mhz = 1e-166"),),
    # omega/hwhm overflows, and the covariance leaves float range
    (("t_in = 0.1\ndetuning_mhz = -10\nlength_m = 1.21", "hwhm_mhz = 1e-320"),),
]
EDGE_ERRORS = [
    "error: filter_cavity: 10000000.0 Hz plus |detuning| is past fsr/4\n",
    "error: squeezed variance is not positive at 1e-08 Hz\n",
    "error: src cavity signal gain underflows at 5000000.0 Hz\n",
    "error: propagated covariance is not finite at 5000000.0 Hz\n",
]


def test_float_walk_prints_what_the_array_path_prints(tmp_path, monkeypatch):
    # corpus chains of every shape, on their own 21-point grids and on
    # 401-point bands, many of which reach past a cavity's fsr/4
    rng, band_rng = random.Random("float walk: chains"), random.Random("float walk: bands")
    argvs = []
    for i in range(len(corpus.SHAPES) * 2):
        path = tmp_path / f"gen{i:02d}.scn"
        path.write_text(corpus.generated_scenario(rng, i), encoding="utf-8")
        argvs += [["spectrum", str(path)], ["spectrum", str(path), *corpus._band(band_rng)]]
    tabletop = pathlib.Path(bundled_scenario_path("tabletop")).read_text(encoding="utf-8")
    for i, edits in enumerate(EDGES):
        text = tabletop
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        path = tmp_path / f"edge{i}.scn"
        path.write_text(text, encoding="utf-8")
        argvs.append(["spectrum", str(path)])
    with monkeypatch.context() as patch:
        walked = [_Walks(patch).run(argv) for argv in argvs]
    with monkeypatch.context() as patch:
        arrays = [_Walks(patch, walk=False).run(argv) for argv in argvs]
    assert [w[:3] for w in walked] == [a[:3] for a in arrays]
    assert [w[:3] for w in walked[-len(EDGES):]] == [(3, "", err) for err in EDGE_ERRORS]
    # a chain that passes never needs the arrays; one that fails is named by them
    assert {w[3] for w in walked if w[0] == 0} == {(True,)}
    assert {w[3] for w in walked if w[0] != 0} == {(True, False)}
    codes = [w[0] for w in walked]
    assert codes.count(0) > 40 and codes.count(3) > 10
    assert sum("past fsr/4" in w[2] for w in walked) > 10


def test_two_cavities_past_fsr4_name_the_array_paths_error(tmp_path):
    # src holds its sidebands below 2.24 MHz and the filter cavity below
    # 14.82 MHz, so a walk one frequency at a time meets src first; the array
    # path checks the filter cavity, first in the chain, over the whole grid first
    tabletop = pathlib.Path(bundled_scenario_path("tabletop")).read_text(encoding="utf-8")
    text = (tabletop.split("[losses]")[0]
            .replace("detuning_mhz = -10\nlength_m = 1.21", "detuning_mhz = 2.539\nlength_m = 2.1588")
            .replace("detuning_mhz = 10\nlength_m = 1.21", "detuning_mhz = 9.7\nfsr_mhz = 47.7627")
            + "[losses]\nfilter_cavity = @cavity\nsrc = @cavity\n"
            + "[grid]\nfmin_mhz = 1.755\nfmax_mhz = 14.946\npoints = 21\n")
    sc = parse_scenario(text)
    with pytest.raises(UnphysicalError, match="^src: "):  # one frequency at a time
        for f in sc.grid.frequencies():
            propagate(sc, f)
    assert interferometer._spectrum_rows(sc, sc.grid) is None  # the walk names nothing
    path = tmp_path / "two.scn"
    path.write_text(text, encoding="utf-8")
    assert corpus.run(["spectrum", str(path)]) == (
        3, "", "error: filter_cavity: 14946000.0 Hz plus |detuning| is past fsr/4\n")


def test_benchmark_setup_code_still_runs():
    # bench/run.py times a fresh interpreter running SETUP_CODE with a scenario path
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    setup_code = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign) and node.targets[0].id == "SETUP_CODE")
    proc = fresh_python(setup_code + "; print('numpy' in sys.modules)",
                        bundled_scenario_path("tabletop"))
    assert proc.returncode == 0 and proc.stderr == ""
    printed_file, numpy_loaded = proc.stdout.splitlines()
    assert pathlib.Path(printed_file).resolve() == ROOT / "src" / "sqzbudget" / "cli.py"
    assert numpy_loaded == "False"


def test_sweep_grid_is_linspace_value_for_value():
    rng = np.random.default_rng(12)
    k = 5_000
    for n in range(2, 22):  # 100,000 grids, one linspace call per grid length
        ends = np.sort(rng.uniform(0.0, 1.0, (2, k)), axis=0)
        ends[:, : k // 10] = ends[0, : k // 10]  # eta_min == eta_max
        equal = ends[0] == ends[1]
        for mask in (equal, ~equal):  # an all-zero step takes linspace's other branch
            expected = np.linspace(ends[0, mask], ends[1, mask], n).T.tolist()
            got = [_linspace(a, b, n) for a, b in ends[:, mask].T.tolist()]
            assert got == expected
    # long grids, and steps that underflow to 0 (linspace's branch for denormals)
    for a, b, n in [(0.5, 1.0, 100_001), (0.123, 0.987, 99_991), (0.0, 5e-324, 4),
                    (0.0, 1e-320, 1_000), (0.3, 0.3, 7), (0.0, 0.0, 2), (1.0, 1.0, 3)]:
        assert _linspace(a, b, n) == np.linspace(a, b, n).tolist()


def test_scalar_db_prints_as_numpy_log10_did():
    rng = np.random.default_rng(7)
    input_db = rng.uniform(-30.0, 30.0, 100_000).tolist()
    eta = rng.uniform(0.0, 1.0, 100_000).tolist()
    variances = [apply_loss(db_to_variance(d), e) for d, e in zip(input_db, eta)]
    got = [variance_to_db(v) for v in variances]
    expected = (-10.0 * np.log10(variances)).tolist()
    # the two logarithms differ in the last ulp on about one input in seven
    got, expected = zip(*[(a, b) for a, b in zip(got, expected) if a != b])
    assert len(got) > 10_000
    # budget prints output_db with 2 decimals, the sweep CSV with 6
    assert ["%.2f" % x for x in got] == ["%.2f" % x for x in expected]
    assert _csv_lines([got]) == _csv_lines([expected])


def test_sweep_output_matches_numpy_formula():
    rng = np.random.default_rng(5)
    for _ in range(300):
        input_db = float(rng.uniform(-20.0, 30.0))
        eta_min, eta_max = sorted(rng.uniform(0.0, 1.0, 2).tolist())
        n = int(rng.integers(2, 200))
        etas = np.linspace(eta_min, eta_max, n)
        v_in = db_to_variance(input_db)
        old = [etas.tolist(), (-10.0 * np.log10(etas * v_in + (1.0 - etas))).tolist()]
        new = list(zip(*efficiency_sweep(input_db, eta_min, eta_max, n)))
        assert _csv_lines(new) == _csv_lines(old)
