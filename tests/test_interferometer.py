import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzbudget import chain
from sqzbudget.cavity import CavityParams, derive_rates
from sqzbudget.chain import (
    CavityStage,
    FrequencyGrid,
    LossElement,
    Scenario,
    homodyne_readout,
    noise_db,
    propagate,
)
from sqzbudget.interferometer import (
    NoiseSpectrum,
    SrcParams,
    signal_gain,
    snr_spectrum,
    src_squeezing_reflection,
)
from sqzbudget.quadcore import SpectralCovariance, variance_to_db
from sqzbudget.source import vacuum_source

from conftest import load_bundled

MHZ = 1e6


def test_default_recycling_cavity():
    p = SrcParams.default()
    assert p.cavity.detuning_hz == 10 * MHZ
    assert p.cavity.hwhm_hz == pytest.approx(1068409.4727756338, rel=1e-13)
    assert p.signal_injection == 1.0
    with pytest.raises(ValueError):
        SrcParams(cavity=p.cavity, signal_injection=-1.0)


def test_lossless_reflection_preserves_squeezing_magnitude():
    cav = CavityParams(t_in=0.1, detuning_hz=10 * MHZ,
                       hwhm_hz=1.039 * MHZ)
    p = SrcParams(cavity=cav)
    state = SpectralCovariance.diagonal(0.1, 10.0)
    for f_mhz in (5.0, 9.0, 10.0, 11.0, 15.0):
        out = src_squeezing_reflection(p, f_mhz * MHZ).apply(state)
        eig = np.linalg.eigvalsh(out.matrix()).real
        assert min(eig) == pytest.approx(0.1, rel=1e-10)
        assert max(eig) == pytest.approx(10.0, rel=1e-10)


def test_far_detuned_reflection_is_minus_identity():
    cav = CavityParams(t_in=0.1, detuning_hz=10 * MHZ, hwhm_hz=0.1 * MHZ)
    pair = src_squeezing_reflection(SrcParams(cavity=cav), 300 * MHZ)
    assert np.allclose(pair.t, -np.eye(2), atol=1e-3)
    state = SpectralCovariance.diagonal(0.1, 10.0)
    out = pair.apply(state)
    assert out.s11 == pytest.approx(0.1, rel=1e-4)


def test_lossy_reflection_dips_at_detuning():
    p = SrcParams.default()
    state = SpectralCovariance.diagonal(0.1, 10.0)
    freqs = np.linspace(5 * MHZ, 15 * MHZ, 401)
    depth = []
    for f in freqs:
        out = src_squeezing_reflection(p, f).apply(state)
        depth.append(variance_to_db(min(np.linalg.eigvalsh(out.matrix()).real)))
    worst = freqs[int(np.argmin(depth))]
    assert abs(worst - p.cavity.detuning_hz) <= p.cavity.hwhm_hz
    assert min(depth) < depth[0]


def test_signal_gain_shape():
    cav = CavityParams(detuning_hz=10 * MHZ, hwhm_hz=1.039 * MHZ)
    p = SrcParams(cavity=cav)
    assert signal_gain(p, 10 * MHZ) == 1.0
    assert signal_gain(p, 10 * MHZ + 1.039 * MHZ) == pytest.approx(0.5, rel=1e-12)
    assert signal_gain(p, 10 * MHZ - 1.039 * MHZ) == pytest.approx(0.5, rel=1e-12)
    g = signal_gain(p, 5 * MHZ)
    assert g == pytest.approx(0.041393436635588514, rel=1e-12)
    assert 10 * math.log10(g) == pytest.approx(-13.83, abs=0.01)


@given(st.floats(min_value=6.0, max_value=14.0))
def test_signal_gain_peaks_at_detuning(detuning_mhz):
    cav = CavityParams(detuning_hz=detuning_mhz * MHZ, hwhm_hz=1.0 * MHZ)
    p = SrcParams(cavity=cav)
    freqs = np.linspace(5 * MHZ, 15 * MHZ, 201)
    gains = [signal_gain(p, f) for f in freqs]
    step = freqs[1] - freqs[0]
    assert abs(freqs[int(np.argmax(gains))] - detuning_mhz * MHZ) <= step


def test_noise_spectrum_validation():
    f = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        NoiseSpectrum(f, np.zeros(2), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        NoiseSpectrum(np.array([2.0, 1.0, 3.0]), np.zeros(3), np.zeros(3), np.zeros(3))


def test_snr_spectrum_requires_recycling_stage(tabletop):
    bare = dataclasses.replace(tabletop, stages=tuple(
        s for s in tabletop.stages if isinstance(s, LossElement)))
    with pytest.raises(ValueError):
        snr_spectrum(bare, [10 * MHZ])


def test_snr_spectrum_tabletop_values(tabletop):
    ns = snr_spectrum(tabletop, [5 * MHZ, 10 * MHZ, 14 * MHZ])
    assert ns.noise_db[0] == pytest.approx(2.58723064541202, rel=1e-10)
    assert ns.noise_db[1] == pytest.approx(1.93665971594811, rel=1e-10)
    assert ns.noise_db[2] == pytest.approx(1.67300093256252, rel=1e-10)
    assert ns.signal_db[1] == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(ns.snr_improvement_db, ns.noise_db)


def test_vacuum_scenario_improves_nothing(vacuum_scenario):
    ns = snr_spectrum(vacuum_scenario, vacuum_scenario.grid.frequencies()[::20])
    assert np.all(ns.noise_db == 0.0)
    assert np.all(ns.snr_improvement_db == 0.0)


def test_signal_column_ignores_the_source(tabletop):
    freqs = tabletop.grid.frequencies()[::10]
    squeezed = snr_spectrum(tabletop, freqs)
    dark = snr_spectrum(
        dataclasses.replace(tabletop, source=vacuum_source(tabletop.source)), freqs)
    assert np.array_equal(squeezed.signal_db, dark.signal_db)


def _lossless_variant(tabletop):
    """Same chain but with a lossless recycling cavity (matched to the filter)."""
    stages = []
    for s in tabletop.stages:
        if isinstance(s, CavityStage) and s.role == "src":
            lossless = derive_rates(CavityParams(
                t_in=s.params.t_in, loss_rt=0.0, detuning_hz=s.params.detuning_hz,
                length_m=s.params.length_m))
            stages.append(CavityStage("src", lossless))
        else:
            stages.append(s)
    return dataclasses.replace(tabletop, stages=tuple(stages))


def test_matched_filter_cancels_rotation_of_lossless_src(tabletop):
    cavityless = dataclasses.replace(tabletop, stages=tuple(
        s for s in tabletop.stages if isinstance(s, LossElement)))
    matched = _lossless_variant(tabletop)
    fc = matched.cavity_stage("filter").params
    src = matched.cavity_stage("src").params
    assert fc.hwhm_hz == pytest.approx(src.hwhm_hz, rel=1e-12)
    assert fc.detuning_hz == -src.detuning_hz
    for f in matched.grid.frequencies():
        with_cavities = homodyne_readout(propagate(matched, f), 0.0)
        plain = homodyne_readout(propagate(cavityless, f), 0.0)
        assert variance_to_db(with_cavities) == pytest.approx(
            variance_to_db(plain), abs=0.01)


def test_filter_cavity_earns_its_keep(tabletop):
    without_fc = dataclasses.replace(tabletop, stages=tuple(
        s for s in tabletop.stages
        if not (isinstance(s, CavityStage) and s.role == "filter")))
    freqs = tabletop.grid.frequencies()
    with_db = [variance_to_db(homodyne_readout(propagate(tabletop, f), 0.0)) for f in freqs]
    without_db = [variance_to_db(homodyne_readout(propagate(without_fc, f), 0.0))
                  for f in freqs]
    # dropping the filter leaves the squeezing misrotated somewhere in band,
    # and the worst frequency is strictly worse than any point with it
    assert min(without_db) < min(with_db)
    assert min(without_db) < 0.0  # actually anti-squeezed near the detuning


def _without_cavities(sc):
    return dataclasses.replace(sc, stages=tuple(
        s for s in sc.stages if isinstance(s, LossElement)))


@pytest.mark.parametrize("name", ["tabletop", "geo600", "vacuum", "tabletop_without_cavities"])
def test_chunked_spectrum_matches_scalar_path(name, monkeypatch):
    base, _, rest = name.partition("_")
    sc = load_bundled(base)
    if rest:
        sc = _without_cavities(sc)
    freqs = sc.grid.frequencies()
    scalar = np.array([variance_to_db(homodyne_readout(propagate(sc, float(f)), sc.homodyne_angle))
                       for f in freqs])
    for chunk in (3, 7):  # chunk boundaries fall inside every bundled grid
        monkeypatch.setattr(chain, "CHUNK_POINTS", chunk)
        # noise_db is what the CLI prints for chains without a recycling cavity
        assert np.max(np.abs(noise_db(sc, freqs) - scalar)) <= 1e-12
        if sc.cavity_stage("src") is not None:
            ns = snr_spectrum(sc, freqs)
            assert np.max(np.abs(ns.noise_db - scalar)) <= 1e-12
            signal = [10.0 * math.log10(signal_gain(SrcParams(sc.cavity_stage("src").params), f))
                      for f in freqs]
            assert np.max(np.abs(ns.signal_db - signal)) <= 1e-12


def test_spectrum_warns_only_past_quarter_fsr(tabletop):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        snr_spectrum(tabletop, tabletop.grid.frequencies())
    # both 1.21 m cavities sit 10 MHz from the carrier; fsr/4 is ~31 MHz
    wide = dataclasses.replace(tabletop, grid=FrequencyGrid(5 * MHZ, 25 * MHZ, 41))
    with pytest.warns(UserWarning, match="fsr/4"):
        snr_spectrum(wide, wide.grid.frequencies())
