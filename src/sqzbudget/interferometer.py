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

import numpy as np

from . import cavity as _cavity
from . import chain as _chain


@dataclass(frozen=True)
class SrcParams:
    """Signal-recycling cavity plus the injected test-signal amplitude.

    signal_injection is a single-sideband amplitude in relative units; the
    published gain is normalized to unit peak, so it cancels there.
    """

    cavity: _cavity.CavityParams
    signal_injection: float = 1.0

    def __post_init__(self):
        if not self.signal_injection >= 0.0:
            raise ValueError(f"signal_injection must be >= 0, got {self.signal_injection!r}")

    @classmethod
    def default(cls, detuning_hz=10e6):
        """The bundled-scenario recycling cavity: 90% mirror, 1.21 m, 0.3% loss."""
        p = _cavity.CavityParams(
            t_in=0.10, loss_rt=0.003, detuning_hz=detuning_hz, length_m=1.21
        )
        return cls(cavity=_cavity.derive_rates(p))


def src_squeezing_reflection(p, omega_hz):
    """Two-photon transfer of the squeezed field reflected off the cavity."""
    return _cavity.quadrature_transfer(_cavity.derive_rates(p.cavity), omega_hz)


def signal_gain(p, omega_hz):
    """Signal power transfer, normalized to 1 at the cavity detuning.

    omega_hz is a scalar or an array; the rates are derived once per call.
    A single signal sideband at omega_hz sees the Lorentzian resonance
    g = hwhm^2 / (hwhm^2 + (omega - detuning)^2).
    """
    q = _cavity.derive_rates(p.cavity)
    h = q.hwhm_hz
    d = omega_hz - q.detuning_hz
    return h * h / (h * h + d * d)


@dataclass(frozen=True)
class NoiseSpectrum:
    """Per-frequency noise (dB relative to shot), signal gain, and SNR gain.

    noise_db and snr_improvement_db are positive below shot noise;
    signal_db is the normalized signal gain (0 dB at the peak).
    """

    frequency_hz: np.ndarray
    noise_db: np.ndarray
    signal_db: np.ndarray
    snr_improvement_db: np.ndarray

    def __post_init__(self):
        for a in (self.frequency_hz, self.noise_db, self.signal_db, self.snr_improvement_db):
            if np.asarray(a).shape != np.asarray(self.frequency_hz).shape:
                raise ValueError("spectrum columns must have matching lengths")
        if len(self.frequency_hz) > 1 and not np.all(np.diff(self.frequency_hz) > 0):
            raise ValueError("frequency grid must be strictly increasing")


def snr_spectrum(sc, frequencies):
    """Noise, signal, and SNR-improvement spectra of a recycling scenario.

    Noise is referenced to shot noise, the vacuum fixed point of the chain
    (see :func:`sqzbudget.chain.noise_db`).  The signal path is untouched by
    squeezing, hence the improvement column equals the noise suppression.
    """
    stage = sc.cavity_stage("src")
    if stage is None:
        raise ValueError("scenario has no signal-recycling cavity stage")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    noise = _chain.noise_db(sc, freqs)
    signal = 10.0 * np.log10(signal_gain(SrcParams(cavity=stage.params), freqs))
    return NoiseSpectrum(
        frequency_hz=freqs,
        noise_db=noise,
        signal_db=signal,
        snr_improvement_db=noise.copy(),
    )
