
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzbudget.quadcore import (
    UnphysicalError,
    apply_loss,
    db_to_variance,
    variance_to_db,
)
from sqzbudget.source import (
    SourceParams,
    escape_efficiency,
    generated_spectrum,
    pump_parameter,
)

from conftest import loss, replace

MHZ = 1e6


def test_escape_efficiency_values():
    assert escape_efficiency(0.033, 0.0037) == pytest.approx(0.89918256130790191, rel=1e-13)
    assert escape_efficiency(0.07, 0.0037) == pytest.approx(0.94979647218453189, rel=1e-13)
    assert escape_efficiency(0.033, 0.0) == 1.0
    with pytest.raises(UnphysicalError):
        escape_efficiency(0.0, 0.0037)
    with pytest.raises(UnphysicalError):
        escape_efficiency(0.9, 0.2)


def test_pump_parameter_values():
    assert pump_parameter(1.0) == 0.0
    assert pump_parameter(4.0) == pytest.approx(0.5, rel=1e-14)
    x = pump_parameter(5.0)
    assert x == pytest.approx(0.55278640450004206, rel=1e-13)
    assert 1.0 / (1.0 - x) ** 2 == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(UnphysicalError):
        pump_parameter(0.5)


def test_source_params_validation():
    with pytest.raises(ValueError):
        SourceParams(mode="banana", bandwidth_hz=20 * MHZ, escape_eta=1.0)
    with pytest.raises(UnphysicalError):
        SourceParams(mode="direct", gen_db_at_dc=3.0, bandwidth_hz=0.0, escape_eta=1.0)
    with pytest.raises(ValueError):
        SourceParams(mode="direct", gen_db_at_dc=3.0, bandwidth_hz=20 * MHZ)
    with pytest.raises(ValueError):
        SourceParams(mode="physical", bandwidth_hz=20 * MHZ, escape_eta=1.0)
    # gamma*(1 + x), the physical Lorentzian's half width, past float range
    with pytest.raises(UnphysicalError, match="derived source width must be finite, got inf"):
        SourceParams(mode="physical", classical_gain=10.0, bandwidth_hz=1.5e308, escape_eta=1.0)
    # pump parameter 0.99 needs classical gain 1e4
    with pytest.raises(UnphysicalError):
        SourceParams(mode="physical", classical_gain=1e4, bandwidth_hz=20 * MHZ,
                     escape_eta=1.0)
    # the coupler/loss pair is checked when the params are built
    with pytest.raises(UnphysicalError, match="nothing escapes"):
        SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                     t_out=0.0, loss_rt=0.01)
    with pytest.raises(UnphysicalError, match="t_out \\+ loss_rt < 1"):
        SourceParams(mode="physical", classical_gain=5.0, bandwidth_hz=20 * MHZ,
                     t_out=0.6, loss_rt=0.5)


def test_physical_mode_dc_depth():
    p = SourceParams(mode="physical", classical_gain=5.0, bandwidth_hz=20 * MHZ,
                     t_out=0.033, loss_rt=0.0037)
    assert p.escape() == pytest.approx(0.89918256130790191, rel=1e-13)
    assert p.generated_db_at_dc() == pytest.approx(10.811934441552886, rel=1e-13)


def test_no_pump_gives_vacuum():
    p = SourceParams(mode="physical", classical_gain=1.0, bandwidth_hz=20 * MHZ,
                     escape_eta=0.9)
    for omega in (0.0, 5 * MHZ, 40 * MHZ):
        s = generated_spectrum(p, omega)
        assert s.s11 == 1.0 and s.s22 == 1.0


@given(st.floats(min_value=0.0, max_value=0.9),
       st.floats(min_value=0.0, max_value=100.0),
       st.sampled_from([0.0, 0.5, 0.9, 1.0]))
def test_physical_mode_pure_before_escape(x, omega_mhz, eta):
    # the source emits the state inside the OPA, whatever its escape
    gain = 1.0 / (1.0 - x) ** 2
    p = SourceParams(mode="physical", classical_gain=gain, bandwidth_hz=20 * MHZ,
                     escape_eta=eta)
    s = generated_spectrum(p, omega_mhz * MHZ)
    assert s.s11 * s.s22 == pytest.approx(1.0, rel=1e-10)
    # the one Lorentzian formula is the textbook below-threshold spectrum,
    # V-+ = 1 -+ 4x/((1 +- x)^2 + (omega/gamma)^2)
    x, u2 = pump_parameter(gain), (omega_mhz / 20.0) ** 2
    assert s.s11 == pytest.approx(1.0 - 4.0 * x / ((1.0 + x) ** 2 + u2), rel=1e-12)
    assert s.s22 == pytest.approx(1.0 + 4.0 * x / ((1.0 - x) ** 2 + u2), rel=1e-12)


@given(st.floats(min_value=0.0, max_value=0.9),
       st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_physical_mode_never_purer_than_pure(x, omega_mhz, eta):
    # after its escape, the first stage of the chain
    gain = 1.0 / (1.0 - x) ** 2
    p = SourceParams(mode="physical", classical_gain=gain, bandwidth_hz=20 * MHZ,
                     escape_eta=eta)
    s = loss(generated_spectrum(p, omega_mhz * MHZ), p.escape())
    assert s.s11 * s.s22 >= 1.0 - 1e-10
    assert s.s11 > 0.0


def test_direct_mode_dc_value():
    p = SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                     escape_eta=0.9)
    s = generated_spectrum(p, 0.0)
    # the generated depth, before escape
    assert s.s11 == pytest.approx(0.2691534803926916, rel=1e-13)
    assert s.s11 == pytest.approx(db_to_variance(5.7), rel=1e-15)
    # the escape, the first stage of the chain, gives the depth leaving the OPA
    out = loss(s, p.escape()).s11
    assert out == pytest.approx(0.34223813235342241, rel=1e-13)
    assert out == pytest.approx(apply_loss(db_to_variance(5.7), 0.9), rel=1e-14)


def test_direct_mode_half_power_at_bandwidth():
    p = SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                     escape_eta=1.0)
    v0 = generated_spectrum(p, 0.0).s11
    v_bw = generated_spectrum(p, 20 * MHZ).s11
    assert 1.0 - v_bw == pytest.approx((1.0 - v0) / 2.0, rel=1e-12)


def test_direct_mode_pure_before_escape():
    # the source emits the state inside the OPA, whatever its escape
    for eta in (0.0, 0.5, 0.9, 1.0):
        p = SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                         escape_eta=eta)
        for omega in (0.0, 7 * MHZ, 33 * MHZ):
            s = generated_spectrum(p, omega)
            assert s.s11 * s.s22 == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("mode,kwargs", [
    ("direct", {"gen_db_at_dc": 5.7}),
    ("physical", {"classical_gain": 5.0}),
])
def test_squeezing_depth_rolls_off_monotonically(mode, kwargs):
    p = SourceParams(mode=mode, bandwidth_hz=20 * MHZ, escape_eta=0.9, **kwargs)
    depths = [variance_to_db(generated_spectrum(p, f * MHZ).s11)
              for f in (0.0, 2.0, 5.0, 14.0, 20.0, 50.0)]
    assert all(a > b for a, b in zip(depths, depths[1:]))


def test_direct_and_physical_modes_agree_at_dc():
    phys = SourceParams(mode="physical", classical_gain=5.0, bandwidth_hz=20 * MHZ,
                        escape_eta=0.9)
    direct = SourceParams(mode="direct", gen_db_at_dc=phys.generated_db_at_dc(),
                          bandwidth_hz=20 * MHZ, escape_eta=0.9)
    a = generated_spectrum(phys, 0.0)
    b = generated_spectrum(direct, 0.0)
    assert a.s11 == pytest.approx(b.s11, abs=1e-9)
    assert a.s22 == pytest.approx(b.s22, abs=1e-9)


def test_vacuum_source_emits_identity():
    p = SourceParams(mode="physical", classical_gain=5.0, bandwidth_hz=20 * MHZ,
                     escape_eta=0.9)
    # the pump off: a direct source with no squeezing
    off = replace(p, mode="direct", gen_db_at_dc=0.0, classical_gain=None)
    for omega in (0.0, 5 * MHZ, 17 * MHZ):
        s = generated_spectrum(off, omega)
        assert s.s11 == 1.0 and s.s22 == 1.0 and s.s12 == 0j


def test_escape_eta_override_is_validated():
    with pytest.raises(UnphysicalError, match=r"escape_eta must lie in \[0, 1\], got 1.3"):
        SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                     escape_eta=1.3)
    # the one efficiency rule: an int given through the API prints as a float
    with pytest.raises(UnphysicalError, match=r"got 2.0$"):
        SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ, escape_eta=2)
    # escape_eta gives the escape, so the pair beside it would not be read: refused
    with pytest.raises(ValueError, match="t_out is not read by a direct source with escape_eta"):
        SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                     escape_eta=0.9, t_out=0.0, loss_rt=0.01)
