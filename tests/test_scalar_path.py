"""``budget`` and ``sweep`` run on floats alone: numpy stays out, the numbers stay put.

The guard runs each command in a fresh ``python -W error`` interpreter and
reads ``sys.modules`` afterwards.  The differential holds the math-only
scalar path to the numpy formulas it replaced: the sweep grid to
``numpy.linspace`` value for value, and the printed dB values digit for digit
(``math.log10`` and ``numpy.log10`` differ in the last ulp on some inputs).
"""

import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sqzbudget
from sqzbudget.chain import _linspace, efficiency_sweep
from sqzbudget.cli import _csv_lines
from sqzbudget.quadcore import apply_loss, db_to_variance, variance_to_db

from conftest import bundled_scenario_path

ROOT = pathlib.Path(__file__).resolve().parent.parent

# runs the command line given after -c as ``python -m sqzbudget`` does, then
# reports on the last line of stdout the exit code and whether numpy was loaded
RUN_CLI = """import runpy, sys
try:
    runpy.run_module("sqzbudget", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules)
"""


def _fresh(code, *args):
    src = str(pathlib.Path(sqzbudget.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-W", "error", "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("module", ["sqzbudget", "sqzbudget.cli"])
def test_import_leaves_numpy_out(module):
    proc = _fresh(f"import sys, {module}; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("argv,golden,numpy_loaded", [
    (["budget", bundled_scenario_path("tabletop")], "tabletop_budget.txt", False),
    (["sweep", "--input-db", "10"], "sweep_input_10.csv", False),
    # the guard sees numpy where it is loaded
    (["spectrum", bundled_scenario_path("tabletop")], "tabletop_spectrum.csv", True),
], ids=["budget", "sweep", "spectrum"])
def test_command_loads_numpy_only_for_spectrum(argv, golden, numpy_loaded, golden_dir):
    proc = _fresh(RUN_CLI, *argv)
    assert proc.stderr == ""
    expected = (golden_dir / golden).read_text(encoding="utf-8")
    assert proc.stdout == expected + f"0 {numpy_loaded}\n"


def test_benchmark_setup_code_still_runs():
    # bench/run.py times a fresh interpreter running SETUP_CODE with a scenario path
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    setup_code = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign) and node.targets[0].id == "SETUP_CODE")
    proc = _fresh(setup_code + "; print('numpy' in sys.modules)", bundled_scenario_path("tabletop"))
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
