"""Shot-noise-normalized quadrature noise algebra.

All noise powers are dimensionless relative variances, normalized so that
vacuum (shot noise) equals 1.  Squeezing depth in dB is positive for noise
below shot noise:

    db = -10 * log10(variance)

so 10 dB of squeezing means a variance of 0.1, and anti-squeezing comes out
negative.  A passive loss of power transmission ``eta`` mixes the field with
vacuum on a beamsplitter and maps variances as ``v -> eta*v + (1 - eta)``.
Variances and covariances may be arrays over frequency; the algebra is
element-wise, and a check that fails names the first offending element.
Covariances are checked by the :class:`SpectralCovariance` constructor, which
``generated_spectrum`` uses, and by ``chain.propagate``'s exit check; the linear
stage folds between skip the checks, and a NaN or inf carries through to the exit.
"""

import math
from dataclasses import dataclass

import numpy as np

_PSD_TOL = 1e-9  # is_positive_semidefinite's tolerance, relative to max(1, s11, s22)


class UnphysicalError(ValueError):
    """A parameter or state lies outside the physically meaningful range."""


def check_efficiency(eta, name="efficiency"):
    """Validate a power efficiency in [0, 1] and return it as float."""
    eta = float(eta)
    if not math.isfinite(eta) or not 0.0 <= eta <= 1.0:
        raise UnphysicalError(f"{name} must lie in [0, 1], got {eta!r}")
    return eta


def db_to_variance(db):
    """Relative variance for a squeezing depth in dB (positive = below shot noise)."""
    db = float(db)
    if not math.isfinite(db):
        raise UnphysicalError(f"squeezing depth must be finite, got {db!r}")
    try:
        return 10.0 ** (-db / 10.0)
    except OverflowError:
        raise UnphysicalError(f"squeezing depth {db!r} dB has no finite variance") from None


def _require(ok, values, message, error=UnphysicalError):
    """Raise error(message) with its {!r} filled by the first element of values where ok is false.

    ok is a numpy bool or bool array; its own all() is several times cheaper
    than np.all on the short arrays and scalars of a spectrum chunk.
    """
    if not ok.all():
        raise error(message.format(np.extract(~ok, values)[0].item()))


def variance_to_db(v):
    """Squeezing depth in dB for a relative variance (exact inverse of db_to_variance)."""
    _require(np.isfinite(v) & (v > 0.0), v, "relative variance must be positive, got {!r}")
    return -10.0 * np.log10(v)


def apply_loss(v, eta):
    """Beamsplitter loss on a single-quadrature variance: eta*v + (1 - eta)."""
    _require(np.isfinite(v) & (v > 0.0), v, "relative variance must be positive, got {!r}")
    eta = check_efficiency(eta)
    return eta * v + (1.0 - eta)


@dataclass(frozen=True)
class SpectralCovariance:
    """Hermitian 2x2 quadrature noise spectral density at one or many sideband frequencies.

    ``s11`` and ``s22`` are the amplitude and phase quadrature variances,
    ``s12`` the (complex) cross term; the 21 element is its conjugate.  Each
    is a scalar or a 1-D array over frequency, and they broadcast together;
    every method works element-wise.  Vacuum is the identity,
    ``SpectralCovariance(1.0, 1.0)``.  Pure squeezed vacuum has det = 1 and
    passive loss can only increase the determinant.  Values are checked when
    built through this constructor; stage folds skip it (see the module
    docstring).
    """

    s11: float
    s22: float
    s12: complex = 0j

    def __post_init__(self):
        for label, value in (("s11", self.s11), ("s22", self.s22)):
            _require(np.isfinite(value) & (value >= 0.0), value,
                     f"{label} must be finite and >= 0, got {{!r}}")
        _require(np.isfinite(self.s12), self.s12, "s12 must be finite, got {!r}")

    def det(self):
        return self.s11 * self.s22 - abs(self.s12) ** 2

    def is_positive_semidefinite(self):
        """True where S / max(1, s11, s22), free of overflow, is PSD within 1e-9 (element-wise)."""
        scale = np.maximum(1.0, np.maximum(self.s11, self.s22))
        a, b, c = self.s11 / scale, self.s22 / scale, abs(self.s12) / scale
        return (a >= -_PSD_TOL) & (b >= -_PSD_TOL) & (a * b - c * c >= -_PSD_TOL)


def _unchecked(s11, s22, s12):
    """A SpectralCovariance built without the constructor's checks, for the stage folds."""
    s = object.__new__(SpectralCovariance)
    s.__dict__.update(s11=s11, s22=s22, s12=s12)
    return s


def apply_loss_cov(s, eta):
    """Beamsplitter loss on a covariance: eta*S + (1 - eta)*I.

    The diagonal agrees element-wise with :func:`apply_loss`; the off-diagonal
    scales linearly.  Vacuum is an exact fixed point.
    """
    eta = check_efficiency(eta)
    fill = 1.0 - eta
    return _unchecked(eta * s.s11 + fill, eta * s.s22 + fill, eta * s.s12)
