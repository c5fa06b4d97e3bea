import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzbudget.cavity import CavityParams
from sqzbudget.chain import (
    CavityStage,
    FrequencyGrid,
    LossElement,
    Scenario,
    noise_db,
)
from sqzbudget.interferometer import _spectrum_rows, signal_gain, snr_spectrum
from sqzbudget.quadcore import SpectralCovariance, UnphysicalError, variance_to_db
from sqzbudget.source import SourceParams

from conftest import load_bundled, matrix, reflect, replace

MHZ = 1e6


def test_lossless_reflection_preserves_squeezing_magnitude():
    cav = CavityParams(t_in=0.1, detuning_hz=10 * MHZ,
                       hwhm_hz=1.039 * MHZ)
    state = SpectralCovariance(0.1, 10.0)
    for f_mhz in (5.0, 9.0, 10.0, 11.0, 15.0):
        out = reflect(state, cav, f_mhz * MHZ)
        eig = np.linalg.eigvalsh(matrix(out)).real
        assert min(eig) == pytest.approx(0.1, rel=1e-10)
        assert max(eig) == pytest.approx(10.0, rel=1e-10)


def test_far_detuned_reflection_is_minus_identity():
    cav = CavityParams(t_in=0.1, detuning_hz=10 * MHZ, hwhm_hz=0.1 * MHZ)
    # T = -I hands back any state, rotated or not, unchanged
    state = SpectralCovariance(0.1, 10.0, 0.5 - 0.25j)
    out = reflect(state, cav, 300 * MHZ)
    assert np.allclose(matrix(out), matrix(state), rtol=0.0, atol=1e-3)
    assert reflect(SpectralCovariance(0.1, 10.0), cav, 300 * MHZ).s11 == (
        pytest.approx(0.1, rel=1e-4))


def test_lossy_reflection_dips_at_detuning(tabletop):
    p = tabletop.cavity_stage("src").params
    state = SpectralCovariance(0.1, 10.0)
    freqs = np.linspace(5 * MHZ, 15 * MHZ, 401)
    depth = []
    for f in freqs:
        out = reflect(state, p, f)
        depth.append(variance_to_db(min(np.linalg.eigvalsh(matrix(out)).real)))
    worst = freqs[int(np.argmin(depth))]
    assert abs(worst - p.detuning_hz) <= p.hwhm()
    assert min(depth) < depth[0]


def test_signal_gain_shape():
    p = CavityParams(detuning_hz=10 * MHZ, hwhm_hz=1.039 * MHZ)
    assert signal_gain(p, 10 * MHZ) == 1.0
    assert signal_gain(p, 10 * MHZ + 1.039 * MHZ) == pytest.approx(0.5, rel=1e-12)
    assert signal_gain(p, 10 * MHZ - 1.039 * MHZ) == pytest.approx(0.5, rel=1e-12)
    g = signal_gain(p, 5 * MHZ)
    assert g == pytest.approx(0.041393436635588514, rel=1e-12)
    assert 10 * math.log10(g) == pytest.approx(-13.83, abs=0.01)
    # rates are derived when the params are built, so geometry alone is enough
    assert signal_gain(CavityParams(t_in=0.1, detuning_hz=10 * MHZ, length_m=1.21),
                       10 * MHZ) == 1.0
    # and params without rates cannot reach signal_gain
    with pytest.raises(ValueError, match="need length_m"):
        CavityParams(detuning_hz=10 * MHZ, length_m=1.21)


@given(st.floats(min_value=6.0, max_value=14.0))
def test_signal_gain_peaks_at_detuning(detuning_mhz):
    p = CavityParams(detuning_hz=detuning_mhz * MHZ, hwhm_hz=1.0 * MHZ)
    freqs = np.linspace(5 * MHZ, 15 * MHZ, 201)
    gains = [signal_gain(p, f) for f in freqs]
    step = freqs[1] - freqs[0]
    assert abs(freqs[int(np.argmax(gains))] - detuning_mhz * MHZ) <= step


def test_noise_spectrum_validation(tabletop):
    # a spectrum's grid refuses repeated values before anything is propagated:
    # a range one ulp wide builds, but a 50-point linspace on it repeats
    one_ulp = math.nextafter(5 * MHZ, math.inf)
    with pytest.raises(ValueError, match="^frequency grid must be strictly increasing$"):
        FrequencyGrid(5 * MHZ, one_ulp, 50).frequencies()
    assert len(FrequencyGrid(5 * MHZ, one_ulp, 2).frequencies()) == 2
    # any order is fine, but not a frequency outside (0, inf)
    for bad in (0.0, -MHZ, math.inf, math.nan):
        with pytest.raises(ValueError, match="^omega_hz must be finite and > 0"):
            snr_spectrum(tabletop, [5 * MHZ, bad])


def test_snr_spectrum_takes_frequencies_in_any_order(tabletop):
    # like propagate, any finite, positive frequencies: unsorted and repeated too
    freqs = np.array([14.0, 5.0, 10.0, 5.0]) * MHZ
    ns = snr_spectrum(tabletop, freqs)
    assert np.array_equal(ns.frequency_hz, freqs)
    for i, f in enumerate(freqs):
        one = snr_spectrum(tabletop, f)  # one frequency gives a one-element array
        assert ns.noise_db[i] == pytest.approx(one.noise_db[0], rel=1e-13)
        assert ns.signal_db[i] == pytest.approx(one.signal_db[0], rel=1e-13, abs=1e-15)
    assert ns.noise_db[1] == ns.noise_db[3]
    assert ns.snr_improvement_db is ns.noise_db


def test_snr_spectrum_without_recycling_stage_has_flat_signal(tabletop):
    bare = replace(tabletop, stages=tuple(
        s for s in tabletop.stages if isinstance(s, LossElement)))
    freqs = [5 * MHZ, 10 * MHZ, 14 * MHZ]
    ns = snr_spectrum(bare, freqs)
    assert np.array_equal(ns.signal_db, np.zeros(3))
    assert np.array_equal(ns.noise_db, noise_db(bare, freqs))
    assert np.array_equal(ns.snr_improvement_db, ns.noise_db)


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
    pump_off = replace(
        tabletop.source, mode="direct", gen_db_at_dc=0.0, classical_gain=None)
    dark = snr_spectrum(replace(tabletop, source=pump_off), freqs)
    assert np.array_equal(squeezed.signal_db, dark.signal_db)


def _lossless_variant(tabletop):
    """Same chain but with a lossless recycling cavity (matched to the filter)."""
    return replace(tabletop, stages=tuple(
        CavityStage("src", replace(s.params, loss_rt=0.0))
        if s.name == "src" else s
        for s in tabletop.stages))


def test_matched_filter_cancels_rotation_of_lossless_src(tabletop):
    cavityless = replace(tabletop, stages=tuple(
        s for s in tabletop.stages if isinstance(s, LossElement)))
    matched = _lossless_variant(tabletop)
    fc = matched.cavity_stage("filter_cavity").params
    src = matched.cavity_stage("src").params
    assert fc.hwhm() == pytest.approx(src.hwhm(), rel=1e-12)
    assert fc.detuning_hz == -src.detuning_hz
    freqs = matched.grid.frequencies()
    assert noise_db(matched, freqs) == pytest.approx(noise_db(cavityless, freqs), abs=0.01)


def test_filter_cavity_earns_its_keep(tabletop):
    without_fc = replace(tabletop, stages=tuple(
        s for s in tabletop.stages
        if s.name != "filter_cavity"))
    freqs = tabletop.grid.frequencies()
    with_db = noise_db(tabletop, freqs)
    without_db = noise_db(without_fc, freqs)
    # dropping the filter leaves the squeezing misrotated somewhere in band,
    # and the worst frequency is strictly worse than any point with it
    assert min(without_db) < min(with_db)
    assert min(without_db) < 0.0  # actually anti-squeezed near the detuning


def _without_cavities(sc):
    return replace(sc, stages=tuple(
        s for s in sc.stages if isinstance(s, LossElement)))


@pytest.mark.parametrize("name", ["tabletop", "geo600", "vacuum", "tabletop_without_cavities"])
def test_chunked_spectrum_matches_scalar_path(name):
    # the whole grid as one array against the one-chunk walk, one float at a
    # time; the CLI's chunk boundaries are pinned byte for byte in test_cli
    base, _, rest = name.partition("_")
    sc = load_bundled(base)
    if rest:
        sc = _without_cavities(sc)
    freqs = sc.grid.frequencies()
    mhz, noise, signal, snr = (np.array(c) for c in zip(*_spectrum_rows(sc, sc.grid)))
    assert np.array_equal(mhz, freqs / 1e6) and np.array_equal(snr, noise)
    ns = snr_spectrum(sc, freqs)
    assert np.max(np.abs(ns.noise_db - noise)) <= 1e-12
    assert np.max(np.abs(ns.signal_db - signal)) <= 1e-12
    if sc.cavity_stage("src") is None:
        assert not signal.any()
    else:
        gain = [signal_gain(sc.cavity_stage("src").params, f) for f in freqs.tolist()]
        assert np.max(np.abs(signal - [10.0 * math.log10(g) for g in gain])) <= 1e-12


def test_spectrum_refuses_past_quarter_fsr(tabletop):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        snr_spectrum(tabletop, tabletop.grid.frequencies())
    # both 1.21 m cavities sit 10 MHz from the carrier and fsr/4 is ~31 MHz, so
    # the band must end below ~21 MHz; the filter cavity comes first in the chain
    wide = replace(tabletop, grid=FrequencyGrid(5 * MHZ, 25 * MHZ, 41))
    with pytest.raises(UnphysicalError, match=r"^filter_cavity: 21000000\.0 Hz .* fsr/4$"):
        snr_spectrum(wide, wide.grid.frequencies())


def test_spectrum_far_above_every_linewidth():
    # cavities given by hwhm alone have no fsr/4 bound.  Far above every
    # linewidth the source term overflows to its limit, vacuum, and prints as
    # 0 dB; the recycling cavity's signal gain underflows to zero and is refused.
    source = SourceParams(mode="physical", classical_gain=10.0, bandwidth_hz=20 * MHZ,
                          t_out=0.1, loss_rt=0.01)
    fc = CavityStage("filter_cavity", CavityParams(detuning_hz=-10 * MHZ, hwhm_hz=1 * MHZ))
    src = CavityStage("src", CavityParams(detuning_hz=10 * MHZ, hwhm_hz=1 * MHZ))
    freqs = np.array([5 * MHZ, 1e100, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ns = snr_spectrum(Scenario(name="t", source=source, stages=(fc,)), freqs)
        assert math.isfinite(ns.noise_db[0]) and list(ns.noise_db[1:]) == [0.0, 0.0]
        assert ns.signal_db[-1] == 0.0  # no recycling cavity: flat signal
        with pytest.raises(UnphysicalError,
                           match=r"^src cavity signal gain underflows at 1e\+300 Hz$"):
            snr_spectrum(Scenario(name="t", source=source, stages=(fc, src)), freqs)
