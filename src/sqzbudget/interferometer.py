"""Signal-recycling cavity seen from the dark port.

The same detuned cavity plays two roles.  The injected squeezed field is
reflected off it (quadrature rotation, plus degradation from intra-cavity
loss, strongest at the detuning frequency).  A phase-modulation signal
entering through the interferometer is filtered by its transmission
resonance, so the signal transfer is a Lorentzian peaked at the detuning.
Squeezed vacuum carries no signal, so an SNR improvement in dB equals the
noise suppression in dB.  The shot-noise reference is the vacuum fixed point
of the chain: with the pump off every passive stage returns vacuum exactly,
so the noise is referenced to a relative variance of 1 rather than to a
second, pump-off run.

:func:`snr_spectrum` works on numpy arrays.  ``sqzbudget spectrum`` on a grid
of one chunk calls :func:`_spectrum_rows` instead: one walk over plain floats
with :mod:`math`, through the same formulas (``chain._sideband_pair``,
``quadcore._apply_pair``, ``chain.homodyne_readout``, :func:`signal_gain` and
the source's V-), that gives up where any check of the array path would fail
and leaves that path to name the error.
"""

import cmath
import math

from . import chain as _chain
from .quadcore import _apply_pair, _Frozen, _require, _unchecked
from .source import _squeezed_variance


def signal_gain(p, omega_hz):
    """Signal power transfer of a recycling cavity, normalized to 1 at its detuning.

    p is a CavityParams, whose half width is read through ``p.hwhm()``;
    omega_hz is a scalar or an array.  A single signal sideband at omega_hz
    sees the Lorentzian resonance g = hwhm^2 / (hwhm^2 + (omega - detuning)^2).
    """
    h = p.hwhm()
    d = omega_hz - p.detuning_hz
    return h * h / (h * h + d * d)


class NoiseSpectrum(_Frozen):
    """Per-frequency noise (dB relative to shot), signal gain, and SNR gain.

    noise_db and snr_improvement_db are positive below shot noise;
    signal_db is the normalized signal gain (0 dB at the peak).
    """

    frequency_hz: "np.ndarray"  # quoted: the module loads without numpy
    noise_db: "np.ndarray"
    signal_db: "np.ndarray"

    def __init__(self, frequency_hz, noise_db, signal_db):
        self.__dict__.update(frequency_hz=frequency_hz, noise_db=noise_db, signal_db=signal_db)

    @property
    def snr_improvement_db(self):
        """Squeezed vacuum carries no signal, so the SNR gain is noise_db itself."""
        return self.noise_db


def snr_spectrum(sc, frequencies):
    """Noise, signal, and SNR-improvement spectra of any chain.

    frequencies is any finite, positive scalar or 1-D array in Hz, in any
    order, worked on as an array; it need not lie on the scenario's display
    grid.  Noise is referenced to shot noise, the vacuum fixed point of the
    chain (see :func:`sqzbudget.chain.noise_db`).  The signal is the
    recycling cavity's response, or flat 0 dB for a chain without one.  The
    signal path is untouched by squeezing, hence the improvement column
    equals the noise suppression.  :func:`sqzbudget.chain.propagate` decides
    the frequency range; a signal column that leaves float range is refused
    like the noise.
    """
    import numpy as np

    freqs = _chain._frequencies(frequencies)
    noise = _chain.noise_db(sc, freqs)
    stage = sc.cavity_stage("src")
    if stage is None:
        signal = np.zeros_like(noise)
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            signal = 10.0 * np.log10(signal_gain(stage.params, freqs))
        _require(np.isfinite(signal), freqs, "src cavity signal gain underflows at {!r} Hz")
    return NoiseSpectrum(frequency_hz=freqs, noise_db=noise, signal_db=signal)


def _spectrum_rows(sc, grid):
    """The CSV rows of the grid's spectrum, worked on one float at a time, or None.

    For ``sqzbudget spectrum`` on a grid of at most ``cli.CHUNK_POINTS``
    points: each row is (MHz, noise dB, signal dB, SNR dB), from the formulas
    that :func:`snr_spectrum` applies to an array, with :mod:`math` in place
    of numpy.  Where any of the array path's checks would fail (an arithmetic
    error counts as such) it returns None and names nothing: the array path
    is left to name the error.
    """
    freqs = _chain._linspace(grid.fmin_hz, grid.fmax_hz, grid.points)
    # propagate's fsr/4 bounds at every point, decided by the top one
    if not (0.0 < freqs[0] and all(f < g for f, g in zip(freqs, freqs[1:]))
            and freqs[-1] < min((limit for _, limit in sc._limits), default=math.inf)):
        return None
    src = sc.cavity_stage("src")
    rows = []
    try:
        for w in freqs:
            a, b = _chain._sideband_pair(sc, w)  # unpacked: a starred call costs the walk ~3%
            vm = _squeezed_variance(sc.source, w)
            s = _apply_pair(_unchecked(vm, 1.0 / vm, 0j), a, b)
            v = _chain.homodyne_readout(s, sc.homodyne_angle)
            g = 1.0 if src is None else signal_gain(src.params, w)  # 1: a flat 0 dB
            if not (vm > 0.0 and math.isfinite(s.s11) and math.isfinite(s.s22)
                    and cmath.isfinite(s.s12) and s.is_positive_semidefinite()
                    and 0.0 < v < math.inf and 0.0 < g < math.inf):
                return None
            noise = -10.0 * math.log10(v)
            rows.append((w / 1e6, noise, 10.0 * math.log10(g), noise))
    except ArithmeticError:  # 1/0 at V- = 0, 0/0 in the signal gain, abs() of a huge complex
        return None
    return rows
