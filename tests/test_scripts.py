"""The walk-through script keeps working against the public API."""

import pathlib
import runpy
import warnings

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_observations_runs_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(SCRIPTS / "reproduce_observations.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "   10.0 MHz   1.94 dB" in out
    assert "signal peak at 10.00 MHz (recycling-cavity detuning)" in out
    assert ("reflection off the lossy recycling cavity degrades a 10 dB input most "
            "at 10.00 MHz (8.13 dB left)") in out
    assert "table-top chain efficiency 0.6543 turns 5.7 dB into 2.83 dB at DC" in out
