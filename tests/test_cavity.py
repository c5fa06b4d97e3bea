import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzbudget.cavity import (
    CavityParams,
    derive_rates,
    finesse,
    quadrature_transfer,
    reflection,
    rotation_angle,
)
from sqzbudget.quadcore import SpectralCovariance, UnphysicalError

MHZ = 1e6


def test_finesse_values():
    assert finesse(0.1) == pytest.approx(59.628208713621065, rel=1e-13)
    assert finesse(0.1, 0.003) == pytest.approx(57.974580040882235, rel=1e-13)
    with pytest.raises(UnphysicalError):
        finesse(0.0)


def test_derive_rates_from_geometry():
    p = derive_rates(CavityParams(t_in=0.1, length_m=1.21))
    assert p.fsr_hz == pytest.approx(123881180.99173554, rel=1e-13)
    assert p.hwhm_hz == pytest.approx(1038779.9974564468, rel=1e-13)
    lossy = derive_rates(CavityParams(t_in=0.1, loss_rt=0.003, length_m=1.21))
    assert lossy.hwhm_hz == pytest.approx(1068409.4727756338, rel=1e-13)


def test_derive_rates_keeps_explicit_hwhm():
    p = derive_rates(CavityParams(t_in=0.1, length_m=1.21, hwhm_hz=2.0 * MHZ))
    assert p.hwhm_hz == 2.0 * MHZ
    assert p.fsr_hz is not None
    with pytest.raises(ValueError):
        derive_rates(CavityParams(detuning_hz=1.0 * MHZ))


def test_params_validation():
    with pytest.raises(UnphysicalError):
        CavityParams(t_in=1.2)
    with pytest.raises(UnphysicalError):
        CavityParams(t_in=0.5, loss_rt=0.6)
    with pytest.raises(UnphysicalError):
        CavityParams(length_m=-1.0)


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
    p = derive_rates(CavityParams(t_in=0.1, loss_rt=0.003, detuning_hz=10.0 * MHZ,
                                  length_m=1.21))
    r = reflection(p, 10.0 * MHZ)
    assert r.imag == 0.0
    assert r.real == pytest.approx(0.94174757281553398, rel=1e-13)
    assert abs(r) ** 2 == pytest.approx(0.88688849090394948, rel=1e-13)


def test_reflection_requires_rates():
    with pytest.raises(ValueError):
        reflection(CavityParams(t_in=0.1, length_m=1.21), 1.0 * MHZ)


def test_reflection_warns_past_quarter_fsr():
    p = derive_rates(CavityParams(t_in=0.1, length_m=1.21))
    with pytest.warns(UserWarning):
        reflection(p, 40.0 * MHZ)


@given(st.floats(min_value=0.01, max_value=60.0),
       st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=0.05, max_value=5.0))
def test_lossless_transfer_is_unitary(omega_mhz, detuning_mhz, hwhm_mhz):
    p = CavityParams(detuning_hz=detuning_mhz * MHZ, hwhm_hz=hwhm_mhz * MHZ)
    pair = quadrature_transfer(p, omega_mhz * MHZ)
    assert np.allclose(pair.t @ pair.t.conj().T, np.eye(2), atol=1e-12)
    assert np.allclose(pair.n, 0.0, atol=1e-12)


def test_lossless_transfer_unitary_at_many_frequencies():
    rng = np.random.default_rng(7)
    p = CavityParams(detuning_hz=-10.0 * MHZ, hwhm_hz=1.039 * MHZ)
    for omega in rng.uniform(0.01 * MHZ, 60.0 * MHZ, size=1000):
        pair = quadrature_transfer(p, omega)
        assert np.allclose(pair.t @ pair.t.conj().T, np.eye(2), atol=1e-10)


def test_transfer_matrix_frozen_values():
    p = CavityParams(detuning_hz=-10.0 * MHZ, hwhm_hz=1.039 * MHZ)
    t = quadrature_transfer(p, 10.0 * MHZ).t
    diag = 0.0026915385689811871 + 0.051810174571341427j
    off = -0.051810174571341427 - 0.99730846143101881j
    assert t[0, 0] == pytest.approx(diag, rel=1e-12)
    assert t[1, 1] == pytest.approx(diag, rel=1e-12)
    assert t[0, 1] == pytest.approx(off, rel=1e-12)
    assert t[1, 0] == pytest.approx(-off, rel=1e-12)


def test_transfer_applied_to_squeezing_frozen_values():
    p = CavityParams(detuning_hz=-10.0 * MHZ, hwhm_hz=1.039 * MHZ)
    out = quadrature_transfer(p, 10.0 * MHZ).apply(SpectralCovariance.diagonal(0.1, 10.0))
    assert out.s11 == pytest.approx(9.9733537681670862, rel=1e-12)
    assert out.s22 == pytest.approx(0.12664623183291375, rel=1e-12)
    assert out.s12 == pytest.approx(-0.51292072825628013 + 0j, rel=1e-12)
    assert out.det() == pytest.approx(1.0, rel=1e-11)


def test_lossy_transfer_frozen_values():
    p = derive_rates(CavityParams(t_in=0.1, loss_rt=0.003, detuning_hz=10.0 * MHZ,
                                  length_m=1.21))
    pair = quadrature_transfer(p, 10.0 * MHZ)
    assert pair.n[0, 0] == pytest.approx(0.056716691090936737, rel=1e-12)
    assert pair.n[1, 1] == pytest.approx(0.056716691090936737, rel=1e-12)
    assert pair.n[0, 1] == pytest.approx(0.056394818005113786j, rel=1e-12)
    out = pair.apply(SpectralCovariance.diagonal(0.1, 10.0))
    assert out.s11 == pytest.approx(9.4561899928256178, rel=1e-12)
    assert out.s22 == pytest.approx(0.18440480933779468, rel=1e-12)
    assert out.s12 == pytest.approx(0.48217269407140181 - 0.22839901292071083j, rel=1e-12)
    assert out.is_positive_semidefinite()
    assert out.det() >= 1.0


def test_transfer_rejects_nonpositive_frequency():
    p = CavityParams(detuning_hz=0.0, hwhm_hz=1.0 * MHZ)
    with pytest.raises(ValueError):
        quadrature_transfer(p, 0.0)
    with pytest.raises(ValueError):
        quadrature_transfer(p, -1.0 * MHZ)
    with pytest.raises(ValueError, match="got 0.0"):
        quadrature_transfer(p, np.array([1.0, 0.0, -1.0]) * MHZ)


def test_rotation_angle_frozen_value():
    p = CavityParams(detuning_hz=-10.0 * MHZ, hwhm_hz=1.039 * MHZ)
    assert rotation_angle(p, 10.0 * MHZ) == pytest.approx(1.5188929855278365, abs=1e-12)


def test_rotation_angle_refuses_lossy_cavity():
    p = derive_rates(CavityParams(t_in=0.1, loss_rt=0.003, length_m=1.21))
    with pytest.raises(ValueError):
        rotation_angle(p, 10.0 * MHZ)


def _rotation(alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]])


@given(st.floats(min_value=0.01, max_value=60.0),
       st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=0.0, max_value=12.0))
def test_lossless_transfer_acts_as_rotation(omega_mhz, detuning_mhz, hwhm_mhz, db):
    # a lossless detuned cavity only rotates the squeezing ellipse
    p = CavityParams(detuning_hz=detuning_mhz * MHZ, hwhm_hz=hwhm_mhz * MHZ)
    v = 10.0 ** (-db / 10.0)
    s = SpectralCovariance.diagonal(v, 1.0 / v)
    out = quadrature_transfer(p, omega_mhz * MHZ).apply(s)
    r = _rotation(rotation_angle(p, omega_mhz * MHZ))
    expected = r @ s.matrix().real @ r.T
    assert np.allclose(out.matrix(), expected, atol=1e-10)


@given(st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=0.01, max_value=60.0))
def test_opposite_detunings_cancel_rotation(detuning_mhz, hwhm_mhz, omega_mhz):
    plus = CavityParams(detuning_hz=detuning_mhz * MHZ, hwhm_hz=hwhm_mhz * MHZ)
    minus = CavityParams(detuning_hz=-detuning_mhz * MHZ, hwhm_hz=hwhm_mhz * MHZ)
    total = rotation_angle(plus, omega_mhz * MHZ) + rotation_angle(minus, omega_mhz * MHZ)
    assert abs(total) < 1e-9
