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
"""

from dataclasses import dataclass

from . import chain as _chain
from .quadcore import _isfinite, _log10, _quiet, _require


def signal_gain(p, omega_hz):
    """Signal power transfer of a recycling cavity, normalized to 1 at its detuning.

    p is a CavityParams, whose half width is read through ``p.hwhm()``;
    omega_hz is a scalar or an array.  A single signal sideband at omega_hz
    sees the Lorentzian resonance g = hwhm^2 / (hwhm^2 + (omega - detuning)^2).
    """
    h = p.hwhm()
    d = omega_hz - p.detuning_hz
    return h * h / (h * h + d * d)


@dataclass(frozen=True)
class NoiseSpectrum:
    """Per-frequency noise (dB relative to shot), signal gain, and SNR gain.

    noise_db and snr_improvement_db are positive below shot noise;
    signal_db is the normalized signal gain (0 dB at the peak).  Each field is
    a float for one frequency, or an array over many.
    """

    frequency_hz: "float | np.ndarray"  # quoted: the module loads without numpy
    noise_db: "float | np.ndarray"
    signal_db: "float | np.ndarray"

    @property
    def snr_improvement_db(self):
        """Squeezed vacuum carries no signal, so the SNR gain is noise_db itself."""
        return self.noise_db


def snr_spectrum(sc, frequencies):
    """Noise, signal, and SNR-improvement spectra of any chain.

    frequencies is one finite, positive frequency in Hz, whose spectrum holds
    floats worked on with :mod:`math` (numpy stays out), or a 1-D array of
    them in any order; it need not lie on the scenario's display grid.  Noise
    is referenced to shot noise, the vacuum fixed point of the chain (see
    :func:`sqzbudget.chain.noise_db`).  The signal is the recycling cavity's
    response, or flat 0 dB for a chain without one.  The signal path is
    untouched by squeezing, hence the improvement column equals the noise
    suppression.  :func:`sqzbudget.chain.propagate` decides the frequency
    range; a signal column that leaves float range is refused like the noise.
    """
    freqs = _chain._frequencies(frequencies)
    noise = _chain.noise_db(sc, freqs)
    stage = sc.cavity_stage("src")
    if stage is None:
        signal = 0.0 * freqs  # +0 dB: noise_db has checked that every frequency is finite and > 0
    else:
        with _quiet(freqs):
            signal = 10.0 * _log10(signal_gain(stage.params, freqs))
        _require(_isfinite(signal), freqs, "src cavity signal gain underflows at {!r} Hz")
    return NoiseSpectrum(frequency_hz=freqs, noise_db=noise, signal_db=signal)
