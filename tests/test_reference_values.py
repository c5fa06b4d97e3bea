"""Recompute the frozen reference constants at high precision.

The unit tests pin double-precision literals.  This file re-derives a
representative sample with mpmath at 50 digits so a typo in a frozen
literal cannot hide inside a generous tolerance.
"""

import mpmath as mp
import pytest

from sqzbudget.cavity import SPEED_OF_LIGHT, CavityParams, finesse
from sqzbudget.quadcore import apply_loss, db_to_variance, variance_to_db
from sqzbudget.source import escape_efficiency, pump_parameter

mp.mp.dps = 50


def test_headline_decibel_chain():
    v = mp.mpf(10) ** (mp.mpf("-5.7") / 10)
    out = mp.mpf("0.65") * v + mp.mpf("0.35")
    db = -10 * mp.log10(out)
    assert db_to_variance(5.7) == pytest.approx(float(v), rel=1e-15)
    assert apply_loss(db_to_variance(5.7), 0.65) == pytest.approx(float(out), rel=1e-15)
    assert variance_to_db(apply_loss(db_to_variance(5.7), 0.65)) == pytest.approx(
        float(db), rel=1e-14)


def test_cavity_rates_against_high_precision():
    r1 = mp.sqrt(1 - mp.mpf("0.1"))
    r2 = mp.sqrt(1 - mp.mpf("0.003"))
    f_lossless = mp.pi * mp.sqrt(r1) / (1 - r1)
    f_lossy = mp.pi * mp.sqrt(r1 * r2) / (1 - r1 * r2)
    fsr = mp.mpf(SPEED_OF_LIGHT) / (2 * mp.mpf("1.21"))
    assert finesse(0.1) == pytest.approx(float(f_lossless), rel=1e-14)
    assert finesse(0.1, 0.003) == pytest.approx(float(f_lossy), rel=1e-14)
    p = CavityParams(t_in=0.1, loss_rt=0.003, length_m=1.21)
    assert p.fsr() == pytest.approx(float(fsr), rel=1e-15)
    assert p.hwhm() == pytest.approx(float(fsr / (2 * f_lossy)), rel=1e-14)


def test_source_constants_against_high_precision():
    esc = mp.mpf("0.033") / (mp.mpf("0.033") + mp.mpf("0.0037"))
    assert escape_efficiency(0.033, 0.0037) == pytest.approx(float(esc), rel=1e-15)
    x = 1 - 1 / mp.sqrt(5)
    assert pump_parameter(5.0) == pytest.approx(float(x), rel=1e-15)
    ideal_db = 20 * mp.log10((1 + x) / (1 - x))
    assert float(ideal_db) == pytest.approx(10.811934441552886, rel=1e-14)


def test_sweep_markers_against_high_precision():
    cases = {
        ("5.7", "0.65"): 2.798822566307789,
        ("10", "0.83"): 5.968794788241821,
        ("13", "0.83"): 6.744873323943808,
    }
    for (db_in, eta), frozen in cases.items():
        v = mp.mpf(10) ** (-mp.mpf(db_in) / 10)
        out = -10 * mp.log10(mp.mpf(eta) * v + 1 - mp.mpf(eta))
        assert float(out) == pytest.approx(frozen, rel=1e-14)
