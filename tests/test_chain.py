import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzbudget import cavity, chain
from sqzbudget.cavity import CavityParams
from sqzbudget.chain import (
    CavityStage,
    FrequencyGrid,
    LossElement,
    Scenario,
    build_budget,
    efficiency_sweep,
    homodyne_readout,
    propagate,
)
from sqzbudget.quadcore import (
    SpectralCovariance,
    UnphysicalError,
    apply_loss,
    db_to_variance,
    variance_to_db,
)
from sqzbudget.source import SourceParams, generated_spectrum

from conftest import det, loss, matrix, reflect, replace

MHZ = 1e6

TABLETOP_ETAS = [0.90, 0.94, 0.95, 0.97, 0.95, 0.95, 0.93]
GEO_ETAS = [0.95, 0.97, 0.99, 0.99, 0.99, 0.93]


def _elements(etas):
    return [LossElement(f"e{i}", eta, "other") for i, eta in enumerate(etas)]


def test_loss_element_validation():
    with pytest.raises(UnphysicalError):
        LossElement("bad", 1.2, "other")
    with pytest.raises(ValueError):
        LossElement("bad", 0.9, "exotic")


def _chain_budget(etas, escape=1.0):
    """build_budget of a chain whose escape is escape and whose losses have these etas."""
    source = SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                          escape_eta=escape)
    return build_budget(Scenario("chain", source, _elements(etas)))


def test_total_efficiency_products():
    # the budget's total efficiency is the product of its rows, the escape first
    tabletop = _chain_budget(TABLETOP_ETAS[1:], escape=TABLETOP_ETAS[0])
    geo = _chain_budget(GEO_ETAS[1:], escape=GEO_ETAS[0])
    assert tabletop.total == pytest.approx(0.654328537425, rel=1e-12)
    assert geo.total == pytest.approx(0.831541391505, rel=1e-12)
    assert _chain_budget([]).total == 1.0
    # the rounded figures quoted alongside the chains
    assert abs(tabletop.total - 0.6543) < 0.0005
    assert abs(geo.total - 0.8315) < 0.0005
    # a subtotal is the product of its category's rows
    for report, etas in ((tabletop, TABLETOP_ETAS), (geo, GEO_ETAS)):
        assert dict(report.subtotals) == {"escape": etas[0], "other": math.prod(etas[1:])}


def test_homodyne_readout():
    assert homodyne_readout(SpectralCovariance(1.0, 1.0), 0.7) == pytest.approx(1.0)
    s = SpectralCovariance(0.253, 8.47)
    assert homodyne_readout(s, 0.0) == 0.253
    assert homodyne_readout(s, math.pi / 2) == pytest.approx(8.47, rel=1e-12)
    # complex cross term: only the real part reaches a single quadrature
    sx = SpectralCovariance(1.0, 2.0, 0.3 - 0.4j)
    theta = 0.5
    v = np.array([math.cos(theta), math.sin(theta)])
    assert homodyne_readout(sx, theta) == pytest.approx(
        float((v @ matrix(sx) @ v).real), rel=1e-13)


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, 15 * MHZ, 10)
    with pytest.raises(ValueError):
        FrequencyGrid(15 * MHZ, 5 * MHZ, 10)
    with pytest.raises(ValueError):
        FrequencyGrid(5 * MHZ, 15 * MHZ, 1)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            FrequencyGrid(5 * MHZ, bad, 10)
        with pytest.raises(ValueError):
            FrequencyGrid(bad, 15 * MHZ, 10)
    for points in (10.0, True, "10"):
        with pytest.raises(ValueError):
            FrequencyGrid(5 * MHZ, 15 * MHZ, points)
    g = FrequencyGrid(5 * MHZ, 15 * MHZ, 201)
    f = g.frequencies()
    assert len(f) == 201 and f[0] == 5 * MHZ and f[-1] == 15 * MHZ
    # building alone allocates nothing; frequencies() checks the values
    FrequencyGrid(5 * MHZ, 15 * MHZ, 10 ** 9)


def _bare_scenario(stages=(), source=None):
    if source is None:
        source = SourceParams(mode="direct", gen_db_at_dc=0.0, bandwidth_hz=20 * MHZ,
                              escape_eta=1.0)
    return Scenario(name="t", source=source, stages=stages,
                    grid=FrequencyGrid(1 * MHZ, 20 * MHZ, 20))


def test_scenario_rejects_duplicate_roles():
    cav = CavityParams(t_in=0.1, length_m=1.21)
    with pytest.raises(ValueError):
        _bare_scenario(stages=(CavityStage("src", cav), CavityStage("src", cav)))
    # a loss name is a key of [losses], which format_scenario could not write twice
    with pytest.raises(ValueError, match="'a' appears twice"):
        _bare_scenario(stages=(LossElement("a", 0.9), LossElement("a", 0.8)))
    # the source's escape is the chain's first stage, so no other stage takes its name
    with pytest.raises(ValueError, match="'escape' appears twice"):
        _bare_scenario(stages=(LossElement("escape", 0.9),))
    with pytest.raises(ValueError):
        CavityStage("recycling", cav)
    with pytest.raises(ValueError, match="need length_m"):
        CavityStage("src", CavityParams(t_in=0.1))  # no rates, refused by the params


def test_propagate_vacuum_through_nothing():
    sc = _bare_scenario()
    for f in (1 * MHZ, 10 * MHZ, 20 * MHZ):
        s = propagate(sc, f)
        assert s.s11 == 1.0 and s.s22 == 1.0 and s.s12 == 0j


def test_propagate_checks_frequency_domain(tabletop):
    # the display grids (1-20 and 5-15 MHz) do not bound the physics
    assert np.all(propagate(_bare_scenario(), np.array([0.5, 21.0, 400.0]) * MHZ).s11 > 0.0)
    for sc in (_bare_scenario(), tabletop):
        assert propagate(sc, 0.5 * MHZ).s11 > 0.0
        assert np.all(propagate(sc, np.array([0.5, 4.0, 16.0]) * MHZ).s11 > 0.0)
        for bad in (0.0, -1 * MHZ, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and > 0"):
                propagate(sc, bad)
        with pytest.raises(ValueError, match=r"got -1000000\.0$"):
            propagate(sc, np.array([5.0, -1.0, 0.0, math.nan]) * MHZ)


def test_propagate_far_above_the_source_bandwidth_is_vacuum():
    # (omega/bandwidth)^2 overflows to inf, whose limit is vacuum, for one frequency too
    direct = SourceParams(mode="direct", gen_db_at_dc=6.0, bandwidth_hz=20 * MHZ, escape_eta=0.9)
    physical = SourceParams(mode="physical", classical_gain=10.0, bandwidth_hz=20 * MHZ,
                            t_out=0.1, loss_rt=0.01)
    for source in (direct, physical):
        sc = _bare_scenario(stages=_elements([0.9]), source=source)
        for f in (1e300, np.array([1e300, 1.7e308])):
            s = propagate(sc, f)
            assert np.all(s.s11 == 1.0) and np.all(s.s22 == 1.0) and np.all(s.s12 == 0.0)


def test_propagate_keeps_a_huge_finite_state(tabletop):
    # 2000 dB of anti-squeezing at DC gives variances near 1e200, whose determinant
    # overflows; positivity is judged on the scaled covariance, which does not
    source = replace(tabletop.source, gen_db_at_dc=-2000.0)
    s = propagate(replace(tabletop, source=source), np.array([5.0, 10.0, 15.0]) * MHZ)
    assert np.all(s.s11 > 1e190) and np.all(s.is_positive_semidefinite())


def test_propagate_names_first_unphysical_frequency(monkeypatch):
    # a transfer whose state is not positive semidefinite at 7 and 9 MHz stands in for a
    # broken kernel
    def broken(v, w, a, b):
        return SpectralCovariance(np.ones(3), np.ones(3), np.array([0.0, 2.0, 3.0]) + 0j)

    monkeypatch.setattr(chain, "_apply_pair", broken)
    with pytest.raises(RuntimeError, match="at 7000000.0 Hz"):
        propagate(_bare_scenario(), np.array([1.0, 7.0, 9.0]) * MHZ)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_propagate_refuses_a_non_finite_stage(bad, monkeypatch):
    # a cavity whose reflection is non-finite at 7 MHz; the unchecked transfer carries
    # that to propagate's exit check, which refuses it as out of range
    real = cavity.reflection
    signs = []

    def broken(p, omega_hz):
        signs.append(np.sign(omega_hz[0]))
        r = real(p, omega_hz)
        r[1] = bad
        return r

    monkeypatch.setattr(cavity, "reflection", broken)
    src = CavityStage("src", CavityParams(t_in=0.1, detuning_hz=5 * MHZ, hwhm_hz=2 * MHZ))
    with pytest.raises(UnphysicalError, match="not finite at 7000000.0 Hz"):
        propagate(_bare_scenario(stages=(*_elements([0.9, 0.8]), src)),
                  np.array([1.0, 7.0, 9.0]) * MHZ)
    assert signs == [1.0, -1.0]  # both sidebands, once each


@pytest.mark.parametrize("name", ["tabletop", "geo600", "physical"])
def test_propagate_and_budget_walk_one_chain(name, request, monkeypatch):
    # the escape is a stage like any other: the one transfer propagate applies carries
    # the budget's total efficiency, times each cavity's sideband factors
    if name == "physical":  # its escape is set by the coupler/loss pair
        source = SourceParams(mode="physical", classical_gain=10.0, bandwidth_hz=20 * MHZ,
                              t_out=0.1, loss_rt=0.01)
        sc = replace(request.getfixturevalue("tabletop"), source=source)
    else:
        sc = request.getfixturevalue(name)
    real = chain._apply_pair
    pairs = []

    def recording(v, w, a, b):
        pairs.append((a, b))
        return real(v, w, a, b)

    monkeypatch.setattr(chain, "_apply_pair", recording)
    freqs = np.array([5.0, 10.0]) * MHZ
    propagate(sc, freqs)
    [(a, b)] = pairs
    a_want = b_want = math.sqrt(build_budget(sc).total)
    for stage in sc.stages:
        if isinstance(stage, CavityStage):
            a_want = a_want * cavity.reflection(stage.params, freqs)
            b_want = b_want * cavity.reflection(stage.params, -freqs).conjugate()
    np.testing.assert_allclose(a, a_want, rtol=1e-15, atol=0)
    np.testing.assert_allclose(b, b_want, rtol=1e-15, atol=0)
    rows = build_budget(sc).rows
    assert rows == tuple(s for s in sc.chain() if isinstance(s, LossElement))
    assert rows[0] == LossElement("escape", sc.source.escape(), "escape")
    assert sc.chain()[1:] == sc.stages


def test_noise_db_names_first_non_positive_variance(monkeypatch):
    # a readout that is not a positive variance at 7 and 9 MHz stands in for a broken chain
    monkeypatch.setattr(chain, "homodyne_readout", lambda s, theta: np.array([1.0, -0.3, 0.0]))
    with pytest.raises(UnphysicalError, match="got -0.3"):
        chain.noise_db(_bare_scenario(), np.array([1.0, 7.0, 9.0]) * MHZ)


def test_propagate_tabletop_frozen_values(tabletop):
    expected = {
        5.0: 0.551159040558112234,
        10.0: 0.640227063254904476,
        14.0: 0.68029911618390489,
        15.0: 0.694731880084070246,
    }
    for f_mhz, var in expected.items():
        s = propagate(tabletop, f_mhz * MHZ)
        assert homodyne_readout(s, 0.0) == pytest.approx(var, rel=1e-12)


def test_propagate_stays_physical_across_grid(tabletop):
    for f in tabletop.grid.frequencies():
        s = propagate(tabletop, f)
        assert s.is_positive_semidefinite()
        assert det(s) >= 1.0 - 1e-9


def test_frequency_independent_stages_commute(tabletop):
    src = SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                       escape_eta=0.9)
    a = LossElement("a", 0.94, "other")
    b = LossElement("b", 0.95, "other")
    c = LossElement("c", 0.93, "other")
    grid = FrequencyGrid(1 * MHZ, 20 * MHZ, 20)
    one = Scenario("one", src, (a, b, c), grid=grid)
    two = Scenario("two", src, (c, a, b), grid=grid)
    merged = Scenario("merged", src,
                      (LossElement("abc", 0.94 * 0.95 * 0.93, "other"),), grid=grid)
    for f in (1 * MHZ, 7 * MHZ, 20 * MHZ):
        x1, x2, x3 = (propagate(s, f) for s in (one, two, merged))
        assert x1.s11 == pytest.approx(x2.s11, abs=1e-12)
        assert x1.s11 == pytest.approx(x3.s11, abs=1e-12)
        assert x1.s22 == pytest.approx(x3.s22, abs=1e-12)

    # cavities commute too: each stage maps S to M S M^dagger + I - M M^dagger,
    # with M = sqrt(eta)*I or d*I + o*[[0, 1], [-1, 0]], and all such M commute
    def same_spectrum(sc, stages):
        freqs = sc.grid.frequencies()
        moved = chain.noise_db(replace(sc, stages=tuple(stages)), freqs)
        assert np.max(np.abs(moved - chain.noise_db(sc, freqs))) <= 1e-12

    rng = random.Random("stage order")
    stages = list(tabletop.stages)
    same_spectrum(tabletop, reversed(stages))
    for _ in range(3):
        rng.shuffle(stages)
        same_spectrum(tabletop, stages)
    for sc in _two_cavity_chains(rng):
        stages = list(sc.stages)
        same_spectrum(sc, reversed(stages))
        rng.shuffle(stages)
        same_spectrum(sc, stages)


def _two_cavity_chains(rng):
    """Seeded chains with both cavities and up to four losses, two in each source mode."""
    for mode in ("direct", "physical", "direct", "physical"):
        bandwidth_hz = rng.uniform(3.0, 60.0) * MHZ
        db, gain = rng.uniform(1.0, 15.0), rng.uniform(1.5, 40.0)  # both drawn: same seeded chains
        strength = {"gen_db_at_dc": db} if mode == "direct" else {"classical_gain": gain}
        source = SourceParams(mode=mode, bandwidth_hz=bandwidth_hz, **strength,
                              escape_eta=rng.uniform(0.6, 1.0))
        cavities = [CavityStage(name, CavityParams(
            t_in=rng.uniform(0.02, 0.2), loss_rt=rng.uniform(0.0, 0.005),
            detuning_hz=rng.uniform(-12.0, 12.0) * MHZ, hwhm_hz=rng.uniform(0.3, 5.0) * MHZ))
            for name in chain.CAVITY_ROLES]
        losses = [LossElement(f"l{k}", rng.uniform(0.85, 0.999)) for k in range(rng.randint(0, 4))]
        yield Scenario("two", source, (*cavities, *losses), rng.uniform(-0.4, 0.4),
                       FrequencyGrid(0.1 * MHZ, 25 * MHZ, 41))


def test_propagate_matches_the_per_stage_fold(tabletop, geo600, vacuum_scenario):
    # the one transfer against each stage's transfer applied in turn, escape first
    def folded_db(sc, freqs):
        s = generated_spectrum(sc.source, freqs)
        for stage in sc.chain():
            if isinstance(stage, LossElement):
                s = loss(s, stage.eta)
            else:
                s = reflect(s, stage.params, freqs)
        return -10.0 * np.log10(homodyne_readout(s, sc.homodyne_angle))

    for sc in (tabletop, geo600, vacuum_scenario, *_two_cavity_chains(random.Random("fold"))):
        freqs = sc.grid.frequencies()
        assert np.max(np.abs(chain.noise_db(sc, freqs) - folded_db(sc, freqs))) <= 1e-12


@given(st.lists(st.floats(min_value=0.3, max_value=1.0), min_size=0, max_size=6),
       st.floats(min_value=0.0, max_value=1.0))
def test_total_efficiency_order_independent(etas, escape):
    forward = _chain_budget(etas, escape).total
    backward = _chain_budget(list(reversed(etas)), escape).total
    assert forward == pytest.approx(backward, rel=1e-12)
    assert 0.0 <= forward <= 1.0 + 1e-12


def test_efficiency_sweep_frozen_points():
    points = efficiency_sweep(10.0, 0.5, 1.0, 51)
    assert len(points) == 51
    lookup = {round(eta, 6): db for eta, db in points}
    assert lookup[0.83] == pytest.approx(5.968794788241821, abs=1e-9)
    assert lookup[1.0] == pytest.approx(10.0, abs=1e-12)
    assert lookup[0.5] == pytest.approx(variance_to_db(0.55), abs=1e-12)
    thirteen = dict((round(e, 6), d) for e, d in efficiency_sweep(13.0, 0.83, 0.83, 2))
    assert thirteen[0.83] == pytest.approx(6.744873323943808, abs=1e-12)


def test_efficiency_sweep_validation():
    with pytest.raises(ValueError):
        efficiency_sweep(10.0, 0.9, 0.5, 10)
    with pytest.raises(ValueError):
        efficiency_sweep(10.0, 0.5, 1.2, 10)
    with pytest.raises(ValueError):
        efficiency_sweep(10.0, 0.5, 1.0, 1)


@given(st.floats(min_value=0.5, max_value=15.0))
def test_sweep_monotone_and_bounded(input_db):
    points = efficiency_sweep(input_db, 0.0, 1.0, 21)
    dbs = [db for _, db in points]
    assert all(a < b for a, b in zip(dbs, dbs[1:]))
    assert dbs[0] == pytest.approx(0.0, abs=1e-12)
    assert dbs[-1] == pytest.approx(input_db, abs=1e-11)
    assert all(db < input_db for db in dbs[:-1])


def test_budget_tabletop(tabletop):
    report = build_budget(tabletop)
    assert [r.name for r in report.rows][0] == "escape"
    assert report.total == pytest.approx(0.654328537425, rel=1e-12)
    assert report.input_db == 5.7
    assert report.output_db == pytest.approx(2.825073564171736, rel=1e-12)
    subs = dict(report.subtotals)
    assert subs["escape"] == 0.9
    assert subs["mode_matching"] == pytest.approx(0.857375, rel=1e-12)
    assert subs["isolator_rotator"] == pytest.approx(0.9118, rel=1e-12)
    assert subs["photodiode"] == 0.93
    # subtotals keep the reporting category order
    assert [c for c, _ in report.subtotals] == [
        "escape", "mode_matching", "isolator_rotator", "photodiode"]


def test_budget_geo600(geo600):
    report = build_budget(geo600)
    assert report.total == pytest.approx(0.831541391505, rel=1e-12)
    assert report.input_db == 10.0
    assert report.output_db == pytest.approx(5.992673596820453, rel=1e-12)


def test_budget_empty_chain_is_unity():
    sc = _bare_scenario()
    report = build_budget(sc)
    assert report.total == 1.0
    assert report.output_db == pytest.approx(report.input_db, abs=1e-12)


def test_budget_output_consistent_with_sweep(tabletop):
    report = build_budget(tabletop)
    expected = variance_to_db(apply_loss(db_to_variance(report.input_db), report.total))
    assert report.output_db == pytest.approx(expected, rel=1e-14)


def test_scenario_replace_keeps_stages(tabletop):
    # replace round-trips the frozen scenario
    clone = replace(tabletop)
    assert clone == tabletop
    # the chain is built once, and rebuilt by replace from the new source's escape
    assert tabletop.chain() is tabletop.chain()
    source = replace(tabletop.source, escape_eta=0.5)
    chain = replace(tabletop, source=source).chain()
    assert chain[0] == LossElement("escape", 0.5, "escape")
    assert chain[1:] == tabletop.stages
