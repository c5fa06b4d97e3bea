"""End-to-end acceptance gate with pinned tolerances.

Each criterion is one test that prints a single PASS line with the measured
numbers, so `pytest -v` (names) or `pytest -rA -s` (prints) reads as a
checklist.  Tolerances are fixed here on purpose; loosening them to make a
failing build green defeats the point of the gate.
"""

import io
import math

import numpy as np

from sqzbudget.cavity import CavityParams
from sqzbudget.chain import (
    FrequencyGrid,
    LossElement,
    Scenario,
    build_budget,
    homodyne_readout,
    propagate,
)
from sqzbudget.cli import entry
from sqzbudget.interferometer import signal_gain, snr_spectrum
from sqzbudget.quadcore import SpectralCovariance, apply_loss, db_to_variance, variance_to_db
from sqzbudget.source import SourceParams, escape_efficiency

from conftest import det, ellipse_angle, reflect, replace

MHZ = 1e6


def _elements(etas):
    return [LossElement(f"e{i}", eta, "other") for i, eta in enumerate(etas)]


def _chain_total(etas):
    """Total efficiency of the budget of a chain whose escape is etas[0], its losses the rest."""
    source = SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                          escape_eta=etas[0])
    return build_budget(Scenario("chain", source, _elements(etas[1:]))).total


def test_criterion_1_headline_loss_formula():
    db = variance_to_db(apply_loss(db_to_variance(5.7), 0.65))
    assert abs(db - 2.80) <= 0.02
    print(f"criterion 1: PASS - 5.7 dB through eta=0.65 observes {db:.4f} dB "
          f"(required 2.80 +/- 0.02)")


def test_criterion_2_projected_detector_choice():
    product = _chain_total([0.95, 0.97, 0.99, 0.99, 0.99, 0.93])
    assert abs(product - 0.8315) <= 0.0005
    db = variance_to_db(apply_loss(0.1, 0.83))
    assert 5.96 <= db <= 5.98
    db_exact = variance_to_db(apply_loss(0.1, product))
    assert abs(db_exact - 6.0) <= 0.1
    print(f"criterion 2: PASS - six-element product {product:.4f} (0.8315 +/- 0.0005); "
          f"10 dB at eta=0.83 observes {db:.4f} dB in [5.96, 5.98]; "
          f"at the exact product {db_exact:.4f} dB (~6 dB)")


def test_criterion_3_tabletop_chain_product():
    product = _chain_total([0.90, 0.94, 0.95, 0.97, 0.95, 0.95, 0.93])
    assert abs(product - 0.6543) <= 0.0005
    print(f"criterion 3: PASS - seven-element product {product:.4f} (0.6543 +/- 0.0005)")


def test_criterion_4_escape_efficiency():
    lo = escape_efficiency(0.033, 0.0037)
    hi = escape_efficiency(0.07, 0.0037)
    assert abs(lo - 0.899) <= 0.001
    assert abs(hi - 0.950) <= 0.001
    print(f"criterion 4: PASS - escape(0.033, 0.0037) = {lo:.4f} (0.899 +/- 0.001); "
          f"escape(0.07, 0.0037) = {hi:.4f} (0.950 +/- 0.001)")


def test_criterion_5_frequency_roll_off(golden_dir):
    rows = {}
    text = (golden_dir / "tabletop_spectrum.csv").read_text(encoding="utf-8")
    for line in text.splitlines()[1:]:
        f_mhz, _, _, improvement = line.split(",")
        rows[f_mhz] = float(improvement)
    improvement_14 = rows["14.000000"]
    assert 1.6 <= improvement_14 <= 2.4
    print(f"criterion 5: PASS - recorded 14 MHz SNR improvement {improvement_14:.4f} dB "
          f"in [1.6, 2.4]")


def test_criterion_6_property_suite(tabletop):
    # loss composition identity
    for v in (0.05, 0.3, 1.0, 4.0):
        for a in (0.0, 0.3, 0.65, 1.0):
            for b in (0.1, 0.83, 1.0):
                assert abs(apply_loss(apply_loss(v, a), b)
                           - apply_loss(v, a * b)) <= 1e-12

    # lossless cavity transfer is unitary at 1000 random frequencies
    rng = np.random.default_rng(42)
    cav = CavityParams(detuning_hz=-10 * MHZ, hwhm_hz=1.039 * MHZ)
    # (T T^dagger = I: the image of the zero state, I - T T^dagger, vanishes)
    fill = reflect(SpectralCovariance(0.0, 0.0), cav,
                   rng.uniform(0.01 * MHZ, 60 * MHZ, size=1000))
    assert np.allclose((fill.s11, fill.s22, fill.s12), 0.0, atol=1e-10)

    # opposite detunings cancel the rotation: the ellipse of diag(10, 0.1),
    # major axis at 0, turns by equal and opposite angles (mod pi)
    state = SpectralCovariance(10.0, 0.1)
    for _ in range(200):
        d, h, f = rng.uniform(0.1, 30), rng.uniform(0.05, 5), rng.uniform(0.01, 50)
        plus = CavityParams(detuning_hz=d * MHZ, hwhm_hz=h * MHZ)
        minus = CavityParams(detuning_hz=-d * MHZ, hwhm_hz=h * MHZ)
        total = (ellipse_angle(reflect(state, plus, f * MHZ))
                 + ellipse_angle(reflect(state, minus, f * MHZ)))
        assert abs(math.remainder(total, math.pi)) < 1e-9

    # random chains keep states physical (det >= 1 and positive)
    for _ in range(50):
        source = SourceParams(mode="direct", gen_db_at_dc=rng.uniform(0, 13),
                              bandwidth_hz=20 * MHZ, escape_eta=rng.uniform(0.5, 1.0))
        stages = [LossElement(f"l{i}", rng.uniform(0.5, 1.0), "other")
                  for i in range(rng.integers(0, 4))]
        sc = Scenario("random", source, tuple(stages),
                      grid=FrequencyGrid(1 * MHZ, 30 * MHZ, 4))
        for f in sc.grid.frequencies():
            s = propagate(sc, f)
            assert s.is_positive_semidefinite()
            assert det(s) >= 1.0 - 1e-9

    # vacuum is a fixed point of the full golden chain
    shot = replace(
        tabletop.source, mode="direct", gen_db_at_dc=0.0, classical_gain=None)
    vac_sc = Scenario("vac", shot, tabletop.stages, grid=tabletop.grid)
    for f in tabletop.grid.frequencies()[::40]:
        assert homodyne_readout(propagate(vac_sc, f), 0.0) == 1.0

    # signal gain peaks at the detuning, within one grid step
    freqs = np.linspace(5 * MHZ, 15 * MHZ, 201)
    step = freqs[1] - freqs[0]
    for d in (6.0, 9.7, 10.0, 13.3):
        p = CavityParams(detuning_hz=d * MHZ, hwhm_hz=1.0 * MHZ)
        gains = [signal_gain(p, f) for f in freqs]
        assert abs(freqs[int(np.argmax(gains))] - d * MHZ) <= step

    # the signal column never depends on the source
    sample = tabletop.grid.frequencies()[::20]
    a = snr_spectrum(tabletop, sample)
    b = snr_spectrum(
        Scenario("shot", shot, tabletop.stages, grid=tabletop.grid), sample)
    assert np.array_equal(a.signal_db, b.signal_db)

    print("criterion 6: PASS - composition 1e-12, unitarity 1e-10 x1000, "
          "rotation cancellation 1e-9, random-chain physicality, vacuum fixed "
          "point, signal peak location, source-independent signal")


def test_criterion_7_sweep_golden_regression(golden_dir):
    marker_etas = ("0.500000", "0.650000", "0.830000", "1.000000")
    summaries = []
    for input_db in ("5.7", "10", "13"):
        out = io.StringIO()
        assert entry(["sweep", "--input-db", input_db], out=out) == 0
        text = out.getvalue()
        golden = (golden_dir / f"sweep_input_{input_db}.csv").read_text(encoding="utf-8")
        assert text == golden  # byte-exact regression
        rows = dict(line.split(",") for line in text.splitlines()[1:])
        for eta_text in marker_etas:
            eta = float(eta_text)
            closed_form = variance_to_db(apply_loss(db_to_variance(float(input_db)), eta))
            assert abs(float(rows[eta_text]) - closed_form) <= 1e-6
        summaries.append(f"{input_db} dB @ 0.83 -> {rows['0.830000']}")
    # the quoted upper-curve marker: 13 dB at eta = 0.83 reads about 6.75 dB
    out13 = io.StringIO()
    entry(["sweep", "--input-db", "13"], out=out13)
    rows13 = dict(line.split(",") for line in out13.getvalue().splitlines()[1:])
    assert abs(float(rows13["0.830000"]) - 6.75) <= 0.01
    print("criterion 7: PASS - sweep CSVs byte-identical to goldens; closed form "
          "reproduced at eta in {0.5, 0.65, 0.83, 1.0}; " + "; ".join(summaries))


def test_criterion_8_out_of_scope_items_documented():
    # absolute spectra in physical units, dark-noise levels, and historical
    # squeezing records are context, not desk-reproducible outputs; nothing
    # in this package claims them
    print("criterion 8: PASS (by exclusion) - absolute-scale spectra, dark noise, "
          "and prior-art squeezing records are documented as out of scope")
