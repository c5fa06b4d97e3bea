import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzbudget.cavity import (
    SPEED_OF_LIGHT,
    CavityParams,
    finesse,
    reflection,
)
from sqzbudget.chain import CavityStage, Scenario, propagate
from sqzbudget.quadcore import SpectralCovariance, UnphysicalError
from sqzbudget.source import SourceParams

from conftest import det, ellipse_angle, matrix, reflect, replace, squeezed_state

MHZ = 1e6


def test_finesse_values():
    assert finesse(0.1) == pytest.approx(59.628208713621065, rel=1e-13)
    assert finesse(0.1, 0.003) == pytest.approx(57.974580040882235, rel=1e-13)
    with pytest.raises(UnphysicalError):
        finesse(0.0)


def test_finesse_refuses_a_coupling_below_double_precision():
    # sqrt(1 - 1e-17) rounds to 1, so the finesse would divide by zero
    for t_in, loss_rt in ((1e-17, 0.0), (5e-324, 0.0), (1e-17, 1e-17)):
        with pytest.raises(UnphysicalError, match="uncoupled"):
            finesse(t_in, loss_rt)
        with pytest.raises(UnphysicalError, match="uncoupled"):
            CavityParams(t_in=t_in, loss_rt=loss_rt, length_m=1.21)
    # a loss that is resolved keeps the finesse finite
    assert math.isfinite(finesse(1e-17, 0.003))


def test_derive_rates_from_geometry():
    # rates are derived when the params are built: fsr = c/(2L), hwhm = fsr/(2F)
    p = CavityParams(t_in=0.1, length_m=1.21)
    assert p.fsr() == pytest.approx(123881180.99173554, rel=1e-13)
    assert p.hwhm() == pytest.approx(1038779.9974564468, rel=1e-13)
    assert p.fsr() == SPEED_OF_LIGHT / (2.0 * 1.21)
    assert p.hwhm() == p.fsr() / (2.0 * finesse(0.1))
    # a given fsr would leave the length unread, so the two together are refused
    assert CavityParams(t_in=0.1, fsr_hz=200.0 * MHZ).fsr() == 200.0 * MHZ
    with pytest.raises(ValueError, match="^length_m is not read by a cavity whose fsr is given$"):
        CavityParams(t_in=0.1, length_m=1.21, fsr_hz=200.0 * MHZ)
    lossy = CavityParams(t_in=0.1, loss_rt=0.003, length_m=1.21)
    assert lossy.hwhm() == pytest.approx(1068409.4727756338, rel=1e-13)


def test_replace_derives_rates_again():
    p = CavityParams(t_in=0.1, length_m=1.21)
    # the fields keep what was given; the derived rates live apart from them
    assert (p.fsr_hz, p.hwhm_hz) == (None, None)
    longer = replace(p, length_m=2.42)
    assert longer == CavityParams(t_in=0.1, length_m=2.42)
    assert longer.fsr() == SPEED_OF_LIGHT / (2.0 * 2.42)
    assert longer.hwhm() == pytest.approx(519389.9987282234, rel=1e-13)
    assert replace(p, loss_rt=0.003).hwhm() == pytest.approx(
        1068409.4727756338, rel=1e-13)


def test_derive_rates_keeps_explicit_hwhm():
    p = CavityParams(t_in=0.1, length_m=1.21, hwhm_hz=2.0 * MHZ)
    assert p.hwhm() == 2.0 * MHZ
    assert p.fsr() is not None
    with pytest.raises(ValueError, match="need length_m"):
        CavityParams(detuning_hz=1.0 * MHZ)


def test_params_validation():
    with pytest.raises(UnphysicalError):
        CavityParams(t_in=1.2)
    with pytest.raises(UnphysicalError):
        CavityParams(t_in=0.5, loss_rt=0.6)
    with pytest.raises(UnphysicalError):
        CavityParams(length_m=-1.0)
    # deriving the hwhm of an uncoupled cavity fails at construction too
    with pytest.raises(UnphysicalError):
        CavityParams(t_in=0.0, length_m=1.21)


def test_reflection_lossless_shape():
    p = CavityParams(detuning_hz=0.0, hwhm_hz=1.0 * MHZ)
    assert reflection(p, 0.0) == pytest.approx(1.0)
    # far off resonance the field never enters the cavity
    assert reflection(p, 500.0 * MHZ) == pytest.approx(-1.0, abs=5e-3)
    # half width: |r| = 1 but quadrature phase is pi/2
    r = reflection(p, 1.0 * MHZ)
    assert abs(r) == pytest.approx(1.0, rel=1e-14)
    assert math.degrees(np.angle(r)) == pytest.approx(90.0)


def test_reflection_lossy_dip_on_resonance():
    p = CavityParams(t_in=0.1, loss_rt=0.003, detuning_hz=10.0 * MHZ, length_m=1.21)
    r = reflection(p, 10.0 * MHZ)
    assert r.imag == 0.0
    assert r.real == pytest.approx(0.94174757281553398, rel=1e-13)
    assert abs(r) ** 2 == pytest.approx(0.88688849090394948, rel=1e-13)


def test_params_refuse_missing_rates():
    # t_in without geometry, or geometry without t_in, leaves the hwhm open
    for kwargs in ({"t_in": 0.1}, {"length_m": 1.21}, {"fsr_hz": 100.0 * MHZ},
                   {"loss_rt": 0.003, "length_m": 1.21}):
        with pytest.raises(ValueError, match="need length_m"):
            CavityParams(detuning_hz=1.0 * MHZ, **kwargs)
    # given by hwhm alone, a lossy cavity has no coupling ratio
    with pytest.raises(ValueError, match="a lossy cavity needs t_in"):
        CavityParams(loss_rt=0.003, hwhm_hz=1.0 * MHZ)
    lossless = CavityParams(hwhm_hz=1.0 * MHZ)
    assert lossless.fsr() is None and reflection(lossless, 0.0) == 1.0


def test_reflection_is_silent_past_quarter_fsr():
    # the kernel computes at any frequency; propagate alone decides the range
    p = CavityParams(t_in=0.1, detuning_hz=-10.0 * MHZ, length_m=1.21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(reflection(p, 40.0 * MHZ)) == pytest.approx(1.0, rel=1e-12)
        reflect(SpectralCovariance(1.0, 1.0), p, np.array([5.0, 40.0, 1e6]) * MHZ)
    source = SourceParams(mode="direct", gen_db_at_dc=3.0, bandwidth_hz=20 * MHZ, escape_eta=1.0)
    sc = Scenario(name="t", source=source, stages=(CavityStage("filter_cavity", p),))
    # fsr/4 = c/(8 * 1.21 m) = 30.97 MHz, so omega + 10 MHz must stay below it
    assert np.all(propagate(sc, np.array([5.0, 20.9]) * MHZ).s11 > 0.0)
    with pytest.raises(UnphysicalError,
                       match=r"^filter_cavity: 21000000\.0 Hz plus \|detuning\| is past fsr/4$"):
        propagate(sc, np.array([5.0, 21.0, 40.0]) * MHZ)
    with pytest.raises(UnphysicalError, match=r"^filter_cavity: 40000000\.0 Hz"):
        propagate(sc, 40.0 * MHZ)
    # a cavity given by hwhm alone has no FSR and no bound
    hwhm_only = Scenario(name="t", source=source, stages=(
        CavityStage("filter_cavity", CavityParams(detuning_hz=-10.0 * MHZ, hwhm_hz=p.hwhm())),))
    assert np.all(propagate(hwhm_only, np.array([21.0, 40.0, 1e6]) * MHZ).s11 > 0.0)


def _vacuum_fill(p, omega_hz):
    """N = I - T T^dagger, read as the image of the zero state."""
    n = reflect(SpectralCovariance(0.0, 0.0), p, omega_hz)
    return n.s11, n.s22, n.s12


@given(st.floats(min_value=0.01, max_value=60.0),
       st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=0.05, max_value=5.0))
def test_lossless_transfer_is_unitary(omega_mhz, detuning_mhz, hwhm_mhz):
    # T T^dagger = I leaves no vacuum to fill in
    p = CavityParams(detuning_hz=detuning_mhz * MHZ, hwhm_hz=hwhm_mhz * MHZ)
    assert np.allclose(_vacuum_fill(p, omega_mhz * MHZ), 0.0, atol=1e-12)


def test_lossless_transfer_unitary_at_many_frequencies():
    rng = np.random.default_rng(7)
    p = CavityParams(detuning_hz=-10.0 * MHZ, hwhm_hz=1.039 * MHZ)
    omega = rng.uniform(0.01 * MHZ, 60.0 * MHZ, size=1000)
    assert np.allclose(_vacuum_fill(p, omega), 0.0, atol=1e-10)


def _transfer_matrix(p, omega_hz):
    """T at one frequency, built from reflection as the module docstring writes it."""
    a = reflection(p, omega_hz)
    b = np.conj(reflection(p, -omega_hz))
    return 0.5 * np.array([[a + b, 1j * (a - b)], [-1j * (a - b), a + b]])


cavities = st.builds(
    lambda detuning_mhz, hwhm_mhz, t_in, loss_rt: CavityParams(
        t_in=t_in, loss_rt=loss_rt, detuning_hz=detuning_mhz * MHZ, hwhm_hz=hwhm_mhz * MHZ),
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.01, max_value=0.5),
    st.sampled_from((0.0, 1e-4, 0.003, 0.05, 0.4)))


@given(cavities,
       st.floats(min_value=0.01, max_value=60.0),
       st.floats(min_value=0.0, max_value=15.0),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=-0.4, max_value=0.4))
def test_reflect_matches_the_matrix_product(p, omega_mhz, db, theta, phase):
    # the closed form against S' = T S T^dagger + I - T T^dagger as matrices
    pure = squeezed_state(db, theta)
    state = SpectralCovariance(pure.s11, pure.s22, pure.s12 + 1j * phase * 10.0 ** (-db / 10.0))
    t = _transfer_matrix(p, omega_mhz * MHZ)
    expected = t @ matrix(state) @ t.conj().T + np.eye(2) - t @ t.conj().T
    out = reflect(state, p, omega_mhz * MHZ)
    assert np.allclose(matrix(out), expected, rtol=0.0, atol=1e-12)
    # vacuum comes back bit for bit, across the band as well as at omega
    omegas = np.append(np.linspace(0.01, 60.0, 201), omega_mhz) * MHZ
    vac = reflect(SpectralCovariance(1.0, 1.0), p, omegas)
    assert np.all(vac.s11 == 1.0) and np.all(vac.s22 == 1.0) and np.all(vac.s12 == 0.0)


def test_transfer_applied_to_squeezing_frozen_values():
    p = CavityParams(detuning_hz=-10.0 * MHZ, hwhm_hz=1.039 * MHZ)
    out = reflect(SpectralCovariance(0.1, 10.0), p, 10.0 * MHZ)
    assert out.s11 == pytest.approx(9.9733537681670862, rel=1e-12)
    assert out.s22 == pytest.approx(0.12664623183291375, rel=1e-12)
    assert out.s12 == pytest.approx(-0.51292072825628013 + 0j, rel=1e-12)
    assert det(out) == pytest.approx(1.0, rel=1e-11)


def test_lossy_transfer_frozen_values():
    p = CavityParams(t_in=0.1, loss_rt=0.003, detuning_hz=10.0 * MHZ, length_m=1.21)
    n11, n22, n12 = _vacuum_fill(p, 10.0 * MHZ)
    assert n11 == pytest.approx(0.056716691090936737, rel=1e-12)
    assert n22 == pytest.approx(0.056716691090936737, rel=1e-12)
    assert n12 == pytest.approx(0.056394818005113786j, rel=1e-12)
    out = reflect(SpectralCovariance(0.1, 10.0), p, 10.0 * MHZ)
    assert out.s11 == pytest.approx(9.4561899928256178, rel=1e-12)
    assert out.s22 == pytest.approx(0.18440480933779468, rel=1e-12)
    assert out.s12 == pytest.approx(0.48217269407140181 - 0.22839901292071083j, rel=1e-12)
    assert out.is_positive_semidefinite()
    assert det(out) >= 1.0


def test_rotation_angle_frozen_value():
    # diag(0.1, 10) has its major axis at pi/2; the lossless cavity turns it by
    # its rotation angle, 1.5188929855278365 rad, which leaves it at that + pi/2 mod pi
    p = CavityParams(detuning_hz=-10.0 * MHZ, hwhm_hz=1.039 * MHZ)
    out = reflect(SpectralCovariance(0.1, 10.0), p, 10.0 * MHZ)
    assert ellipse_angle(out) == pytest.approx(-0.051903341267060116, abs=1e-12)


def _rotation(alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]])


@given(st.floats(min_value=0.01, max_value=60.0),
       st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=0.0, max_value=12.0))
def test_lossless_transfer_acts_as_rotation(omega_mhz, detuning_mhz, hwhm_mhz, db):
    # a lossless detuned cavity only rotates the squeezing ellipse, by the mean
    # phase of its two sideband reflections
    p = CavityParams(detuning_hz=detuning_mhz * MHZ, hwhm_hz=hwhm_mhz * MHZ)
    alpha = 0.5 * (np.angle(reflection(p, omega_mhz * MHZ))
                   + np.angle(reflection(p, -omega_mhz * MHZ)))
    s = squeezed_state(db, 0.0)
    out = reflect(s, p, omega_mhz * MHZ)
    r = _rotation(alpha)
    assert np.allclose(matrix(out), r @ matrix(s).real @ r.T, atol=1e-10)
    # the major axis starts at pi/2 and turns by alpha; vacuum (db = 0) is a
    # circle and has no axis, and near it the angle is ill-conditioned
    if db >= 0.01:
        assert abs(math.remainder(ellipse_angle(out) - alpha - math.pi / 2, math.pi)) < 1e-9


@given(st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=0.01, max_value=60.0))
def test_opposite_detunings_cancel_rotation(detuning_mhz, hwhm_mhz, omega_mhz):
    plus = CavityParams(detuning_hz=detuning_mhz * MHZ, hwhm_hz=hwhm_mhz * MHZ)
    minus = CavityParams(detuning_hz=-detuning_mhz * MHZ, hwhm_hz=hwhm_mhz * MHZ)
    # diag(10, 0.1) has its major axis at 0, so each output's angle is its turn
    state = SpectralCovariance(10.0, 0.1)
    total = (ellipse_angle(reflect(state, plus, omega_mhz * MHZ))
             + ellipse_angle(reflect(state, minus, omega_mhz * MHZ)))
    assert abs(math.remainder(total, math.pi)) < 1e-9
