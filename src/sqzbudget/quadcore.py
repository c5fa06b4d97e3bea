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

VACUUM_VARIANCE = 1.0


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
    return 10.0 ** (-db / 10.0)


def _require(ok, values, message):
    """Raise UnphysicalError naming the first element of values where ok is false.

    ok is a numpy bool or bool array; its own all() is several times cheaper
    than np.all on the short arrays and scalars of a spectrum chunk.
    """
    if not ok.all():
        raise UnphysicalError(f"{message}, got {np.extract(~ok, values)[0].item()!r}")


def variance_to_db(v):
    """Squeezing depth in dB for a relative variance (exact inverse of db_to_variance)."""
    _require(np.isfinite(v) & (v > 0.0), v, "relative variance must be positive")
    return -10.0 * np.log10(v)


def apply_loss(v, eta):
    """Beamsplitter loss on a single-quadrature variance: eta*v + (1 - eta)."""
    _require(np.isfinite(v) & (v > 0.0), v, "relative variance must be positive")
    eta = check_efficiency(eta)
    return eta * v + (1.0 - eta)


@dataclass(frozen=True)
class SpectralCovariance:
    """Hermitian 2x2 quadrature noise spectral density at one or many sideband frequencies.

    ``s11`` and ``s22`` are the amplitude and phase quadrature variances,
    ``s12`` the (complex) cross term; the 21 element is its conjugate.  Each
    is a scalar or a 1-D array over frequency, and they broadcast together;
    every method but :meth:`matrix` works element-wise.  Vacuum is the
    identity.  Pure squeezed vacuum has det = 1 and passive loss can only
    increase the determinant.  Values are checked when built through this
    constructor; stage folds skip it (see the module docstring).
    """

    s11: float
    s22: float
    s12: complex = 0j

    def __post_init__(self):
        for label, value in (("s11", self.s11), ("s22", self.s22)):
            _require(np.isfinite(value) & (value >= 0.0), value, f"{label} must be finite and >= 0")
        _require(np.isfinite(self.s12), self.s12, "s12 must be finite")

    @classmethod
    def vacuum(cls):
        return cls(VACUUM_VARIANCE, VACUUM_VARIANCE, 0j)

    @classmethod
    def diagonal(cls, s11, s22):
        return cls(s11, s22, 0j)

    @classmethod
    def from_matrix(cls, m, tol=1e-9):
        """Build from a 2x2 array, rejecting non-Hermitian input beyond tol."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if (abs(m[0, 1] - np.conj(m[1, 0])) > tol * scale
                or abs(m[0, 0].imag) > tol * scale
                or abs(m[1, 1].imag) > tol * scale):
            raise ValueError("matrix is not Hermitian within tolerance")
        return cls(m[0, 0].real, m[1, 1].real, complex(0.5 * (m[0, 1] + np.conj(m[1, 0]))))

    def matrix(self):
        """The covariance at one frequency as a 2x2 complex ndarray."""
        return np.array([[self.s11, self.s12], [np.conj(self.s12), self.s22]], dtype=complex)

    def det(self):
        return self.s11 * self.s22 - abs(self.s12) ** 2

    def is_positive_semidefinite(self, tol=1e-9):
        """True where the covariance is positive semidefinite within tol (element-wise)."""
        scale = np.maximum(1.0, np.maximum(self.s11, self.s22))
        return ((self.s11 >= -tol * scale) & (self.s22 >= -tol * scale)
                & (self.det() >= -tol * scale**2))


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
