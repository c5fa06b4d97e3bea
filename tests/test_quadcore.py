import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzbudget.cavity import CavityParams
from sqzbudget.quadcore import (
    SpectralCovariance,
    UnphysicalError,
    _apply_pair,
    apply_loss,
    db_to_variance,
    variance_to_db,
)

from conftest import det, loss, matrix, reflect, squeezed_state, transfer

etas = st.floats(min_value=0.0, max_value=1.0)
dbs = st.floats(min_value=-20.0, max_value=20.0)
variances = st.floats(min_value=1e-3, max_value=1e3)
# a sideband factor: modulus at most 1, any phase
factors = st.builds(cmath.rect, st.floats(min_value=0.0, max_value=1.0),
                    st.floats(min_value=-math.pi, max_value=math.pi))


def test_db_conventions():
    assert db_to_variance(10.0) == pytest.approx(0.1)
    assert db_to_variance(0.0) == 1.0
    assert db_to_variance(-3.0) == pytest.approx(1.9952623149688795)
    assert variance_to_db(0.1) == pytest.approx(10.0)
    # headline arithmetic: 5.7 dB through 65% efficiency
    v = db_to_variance(5.7)
    assert v == pytest.approx(0.26915348039269157, rel=1e-14)
    out = apply_loss(v, 0.65)
    assert out == pytest.approx(0.52494976225524952, rel=1e-14)
    assert variance_to_db(out) == pytest.approx(2.798822566307789, rel=1e-13)
    assert variance_to_db(0.525) == pytest.approx(2.798406965940431, rel=1e-13)
    assert variance_to_db(0.253) == pytest.approx(5.968794788241821, rel=1e-13)


@given(dbs)
def test_db_round_trip(db):
    assert variance_to_db(db_to_variance(db)) == pytest.approx(db, abs=1e-11)


def test_db_rejects_bad_input():
    with pytest.raises(UnphysicalError):
        db_to_variance(float("nan"))
    # past ~3,233 dB the variance underflows to 0, a depth outside the model
    assert db_to_variance(3000.0) == pytest.approx(1e-300)
    with pytest.raises(UnphysicalError, match="^squeezing depth 4000.0 dB has a variance too"):
        db_to_variance(4000.0)
    with pytest.raises(UnphysicalError):
        variance_to_db(0.0)
    with pytest.raises(UnphysicalError, match="got -0.3"):
        variance_to_db(-0.3)


def test_apply_loss_endpoints():
    assert apply_loss(0.1, 1.0) == 0.1
    assert apply_loss(0.1, 0.0) == 1.0  # full loss leaves vacuum
    assert apply_loss(1.0, 0.37) == 1.0
    with pytest.raises(UnphysicalError):
        apply_loss(0.1, 1.2)
    with pytest.raises(UnphysicalError):
        apply_loss(0.1, -0.1)
    with pytest.raises(UnphysicalError):
        apply_loss(-1.0, 0.5)


@given(variances, etas, etas)
def test_loss_composition(v, a, b):
    # two beamsplitters compose like one with the product efficiency
    chained = apply_loss(apply_loss(v, a), b)
    assert chained == pytest.approx(apply_loss(v, a * b), abs=1e-12)


@given(variances, etas)
def test_loss_pulls_toward_vacuum(v, eta):
    out = apply_loss(v, eta)
    assert abs(out - 1.0) <= abs(v - 1.0) + 1e-15
    assert out > 0.0


def test_covariance_basics():
    vac = SpectralCovariance(1.0, 1.0)
    assert vac.s11 == vac.s22 == 1.0 and vac.s12 == 0j
    s = SpectralCovariance(0.1, 10.0)
    assert s == SpectralCovariance(0.1, 10.0, 0j)
    assert det(s) == pytest.approx(1.0)
    assert s.is_positive_semidefinite()
    sx = SpectralCovariance(1.0, 2.0, 0.3 - 0.4j)
    assert det(sx) == pytest.approx(np.linalg.det(matrix(sx)).real, rel=1e-14)
    assert not SpectralCovariance(1.0, 1.0, 1.1).is_positive_semidefinite()


def test_covariance_rejects_bad_values():
    with pytest.raises(UnphysicalError):
        SpectralCovariance(-0.2, 1.0)
    with pytest.raises(UnphysicalError):
        SpectralCovariance(1.0, float("inf"))
    with pytest.raises(UnphysicalError):
        SpectralCovariance(1.0, 1.0, complex("nan"))
    with pytest.raises(UnphysicalError, match="s22 .* got inf"):
        SpectralCovariance(np.ones(3), np.array([1.0, float("inf"), -1.0]))


def test_loss_pair_matches_scalar_on_diagonal():
    s = SpectralCovariance(0.1, 10.0)
    out = loss(s, 0.65)
    assert out.s11 == pytest.approx(apply_loss(0.1, 0.65), rel=1e-14)
    assert out.s22 == pytest.approx(apply_loss(10.0, 0.65), rel=1e-14)
    assert out.s12 == 0j


def test_sideband_transfer_builds_frozen_covariances():
    s = SpectralCovariance(0.1, 10.0, 0.5 - 0.25j)
    lossy = loss(s, 0.65)
    turned = reflect(s, CavityParams(t_in=0.1, loss_rt=0.003, detuning_hz=1e7,
                                     length_m=1.21), 8e6)
    for out in (lossy, turned, _apply_pair(0.1, 10.0, 0.3 + 0.4j, 0.8)):
        assert type(out) is SpectralCovariance
        with pytest.raises(AttributeError):
            out.s11 = 1.0
        assert out == SpectralCovariance(out.s11, out.s22, out.s12)
    # sqrt(eta)^2 need not be eta to the last bit
    assert lossy.s11 == pytest.approx(0.65 * 0.1 + 0.35, rel=1e-15)
    assert lossy.s22 == pytest.approx(0.65 * 10.0 + 0.35, rel=1e-15)
    assert lossy.s12 == pytest.approx(0.65 * (0.5 - 0.25j), rel=1e-15)


def test_vacuum_is_exact_fixed_point():
    vac = SpectralCovariance(1.0, 1.0)
    for eta in (0.0, 0.123, 0.5, 0.93, 1.0):
        assert loss(vac, eta) == vac


@given(st.floats(min_value=0.0, max_value=15.0),
       st.floats(min_value=-math.pi, max_value=math.pi),
       etas)
def test_loss_keeps_states_physical(db, theta, eta):
    s = squeezed_state(db, theta)
    out = loss(s, eta)
    assert out.is_positive_semidefinite()
    # passive loss cannot purify: det >= 1 is preserved
    assert det(out) >= det(s) - 1e-9
    assert det(out) >= 1.0 - 1e-9


@given(st.floats(min_value=0.0, max_value=15.0), etas)
def test_loss_cov_commutes_with_composition(db, eta):
    s = squeezed_state(db, 0.3)
    one = loss(loss(s, eta), 0.7)
    two = loss(s, 0.7 * eta)
    assert one.s11 == pytest.approx(two.s11, abs=1e-12)
    assert one.s22 == pytest.approx(two.s22, abs=1e-12)
    assert abs(one.s12 - two.s12) < 1e-12


@given(st.floats(min_value=0.0, max_value=15.0),
       st.floats(min_value=-math.pi, max_value=math.pi),
       factors, factors, factors, factors)
def test_sideband_pairs_compose(db, theta, a1, b1, a2, b2):
    # the rule that lets a chain be one transfer: (a1, b1) then (a2, b2) is (a1*a2, b1*b2)
    s = squeezed_state(db, theta)
    one = transfer(transfer(s, a1, b1), a2, b2)
    two = transfer(s, a1 * a2, b1 * b2)
    assert one.s11 == pytest.approx(two.s11, abs=1e-12)
    assert one.s22 == pytest.approx(two.s22, abs=1e-12)
    assert abs(one.s12 - two.s12) < 1e-12


@given(st.floats(min_value=1e-300, max_value=1.0), factors, factors)
def test_kernel_matches_the_general_transfer(v, a, b):
    # on the OPA's diag(v, 1/v) the reference's s12 terms are exact zeros, so the kernel
    # that drops them gives the same floats (== ignores only the sign of a zero, where s12
    # may differ), on floats as the one-chunk walk passes them and on arrays as propagate does
    assert _apply_pair(v, 1.0 / v, a, b) == transfer(SpectralCovariance(v, 1.0 / v), a, b)
    vs, av, bv = np.array([v, 1.0]), np.full(2, a), np.full(2, b)
    got = _apply_pair(vs, 1.0 / vs, av, bv)
    want = transfer(SpectralCovariance(vs, 1.0 / vs), av, bv)
    assert all(map(np.array_equal, got._fields(), want._fields()))
    # vacuum, the arrays' second element, comes back exactly
    assert (got.s11[1], got.s22[1], got.s12[1]) == (1.0, 1.0, 0j)
    assert _apply_pair(1.0, 1.0, a, b) == SpectralCovariance(1.0, 1.0)
