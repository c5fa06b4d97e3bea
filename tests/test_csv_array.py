"""The buffer formatter of long grids, ``cli._csv_array``, prints what ``%.6f`` prints.

``_csv_lines`` (one ``%`` per row) is the oracle throughout: every block is
compared byte for byte, on the values where the two could part.  These are
exact ties in the sixth decimal, values whose product with 1e6 rounds onto
a half-integer, dense frequency grids in MHz, negative zero and tiny
negatives, and values at and past the 1e9 bound, where the whole block goes
through ``_csv_lines``.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzbudget import cli
from sqzbudget.chain import FrequencyGrid
from sqzbudget.cli import _csv_array, _csv_lines
from sqzbudget.interferometer import snr_spectrum

from conftest import bundled_scenario_path, first_difference, load_bundled

BOUND = 1e9  # _csv_array formats magnitudes below it itself

BELOW = st.one_of(
    st.floats(-BOUND, BOUND, exclude_min=True, exclude_max=True),
    # n/128 for odd n lies exactly halfway in the sixth decimal: a true tie
    st.integers(-(128 * 10**9 - 1), 128 * 10**9 - 1).map(lambda n: n / 128),
    # (m + 0.5)/1e6 is seldom a tie, but its product with 1e6 often rounds onto one
    st.builds(lambda m, sign: sign * (m + 0.5) / 1e6,
              st.integers(0, 10**15 - 1), st.sampled_from([1.0, -1.0])),
    st.floats(-1e-6, 0.0),  # tiny negatives and -0.0: no minus sign where they round to zero
    st.sampled_from([0.0, -0.0, 5e-7, -5e-7, 999999999.9999995, -999999999.9999995,
                     math.nextafter(BOUND, 0.0), -math.nextafter(BOUND, 0.0)]),
)
PAST = st.one_of(
    st.sampled_from([BOUND, -BOUND, math.nextafter(BOUND, math.inf)]),
    st.builds(lambda x, sign: sign * x,
              st.floats(BOUND, allow_infinity=False), st.sampled_from([1.0, -1.0])),
)


@st.composite
def blocks(draw):
    """A few float64 columns of one length, as a chunk of the spectrum CSV holds them."""
    rows, fields = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    columns = [np.array(draw(st.lists(BELOW, min_size=rows, max_size=rows)))
               for _ in range(fields)]
    if draw(st.booleans()):  # a frequency column, as a grid in Hz divided by 1e6
        fmin = draw(st.floats(1e6, 2e7))
        columns[0] = np.linspace(fmin, fmin + draw(st.floats(1.0, 2e7)), rows) / 1e6
    if draw(st.booleans()):  # one value at or past the bound
        columns[draw(st.integers(0, fields - 1))][draw(st.integers(0, rows - 1))] = draw(PAST)
    return columns


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(blocks())
def test_csv_array_matches_percent_formatting(columns):
    assert _csv_array(columns) == _csv_lines([c.tolist() for c in columns])


# spectrum_dense's grids of seeds 1-3: 20,001 points in a band inside 1-20 MHz
@pytest.mark.parametrize("band_mhz", [(1.941, 13.026), (7.692, 19.379), (2.666, 11.931)])
def test_csv_array_matches_on_dense_grids(band_mhz):
    mhz = FrequencyGrid(band_mhz[0] * 1e6, band_mhz[1] * 1e6, 20001).frequencies() / 1e6
    r = mhz * 1e6
    assert np.count_nonzero(np.abs(r - np.rint(r)) == 0.5) > 0  # the exact-error branch runs
    for start in range(0, mhz.size, cli.CHUNK_POINTS):
        chunk = mhz[start:start + cli.CHUNK_POINTS]
        columns = (chunk, -chunk, chunk * 1e-3)
        assert first_difference(_csv_array(columns),
                                 _csv_lines([c.tolist() for c in columns])) is None


# integer parts at the edges of the three-digit groups, each block mixed with
# short numbers: a block of two, three or four integer words leaves the upper
# words of a short number blank, and 999.9999996 rounds up into the next group
@pytest.mark.parametrize("top", [999.9999996, 1000.0, 999999.9999996, 1234567.890123,
                                 999999999.9999995])
def test_csv_array_matches_across_digit_groups(top):
    short = [0.0, -0.0, 7.25, -9.5e-7, 10.0, -99.999999, 100.5, 999.0, 1000.0005]
    column = np.array([top, -top, *short, *(top / 10.0**j for j in range(1, 10))])
    columns = (column, -column[::-1])
    assert _csv_array(columns) == _csv_lines([c.tolist() for c in columns])


class _Percent:
    """Counts the blocks that cli formats with ``_csv_lines``."""

    def __init__(self, monkeypatch):
        self.calls = 0
        lines = cli._csv_lines

        def counted(columns):
            self.calls += 1
            return lines(columns)

        monkeypatch.setattr(cli, "_csv_lines", counted)


@pytest.mark.parametrize("edge,falls_back", [
    (math.nextafter(BOUND, 0.0), False), (BOUND, True), (-BOUND, True), (math.inf, True),
])
def test_csv_array_falls_back_at_the_bound(edge, falls_back, monkeypatch):
    percent = _Percent(monkeypatch)
    columns = (np.array([1.0, edge]), np.array([-2.5, 0.125]))
    assert _csv_array(columns) == _csv_lines([c.tolist() for c in columns])
    assert percent.calls == falls_back


def _expected_csv(sc, freqs):
    """What ``spectrum`` printed before the buffer formatter: one ``%`` per row."""
    ns = snr_spectrum(sc, freqs)
    columns = (ns.frequency_hz / 1e6, ns.noise_db, ns.signal_db, ns.snr_improvement_db)
    return ("frequency_mhz,noise_db,signal_db,snr_improvement_db\n"
            + _csv_lines([c.tolist() for c in columns]))


@pytest.mark.parametrize("fmin,fmax,points,percent_chunks", [
    (1e9, 2e9, 2049, 2),  # every frequency past the bound: both chunks fall back
    (1e9 - 2048, 1e9 + 2048, 4097, 2),  # the first chunk lies below it, the others do not
])
def test_spectrum_past_the_bound_prints_the_percent_csv(fmin, fmax, points, percent_chunks,
                                                        monkeypatch):
    percent = _Percent(monkeypatch)
    out = io.StringIO()
    code = cli.entry(["spectrum", bundled_scenario_path("geo600"), "--fmin-mhz", repr(fmin),
                     "--fmax-mhz", repr(fmax), "--points", str(points)], out=out)
    assert code == 0
    assert percent.calls == percent_chunks
    grid = FrequencyGrid(fmin * 1e6, fmax * 1e6, points)
    expected = _expected_csv(load_bundled("geo600"), grid.frequencies())
    assert first_difference(out.getvalue(), expected) is None
