"""Shot-noise-normalized quadrature noise algebra.

All noise powers are dimensionless relative variances, normalized so that
vacuum (shot noise) equals 1.  Squeezing depth in dB is positive for noise
below shot noise:

    db = -10 * log10(variance)

so 10 dB of squeezing means a variance of 0.1, and anti-squeezing comes out
negative.  A passive loss of power transmission ``eta`` mixes the field with
vacuum on a beamsplitter and maps variances as ``v -> eta*v + (1 - eta)``.
The scalar helpers (:func:`db_to_variance`, :func:`variance_to_db`,
:func:`apply_loss`, :func:`check_efficiency`) take one number and use only
:mod:`math`, so a loss budget or a sweep never imports numpy.
:class:`SpectralCovariance` works element-wise on arrays over frequency and
imports numpy where its checks call it; a check that fails names the first
offending element.

Every passive stage maps S to M S M^dagger + I - M M^dagger, M multiplying
the upper sideband by a and the lower by b (both sqrt(eta) for a loss); two
stages compose into the pair (a1*a2, b1*b2) (Caves and Schumaker, PRA 31,
3068 (1985)).  Covariances are checked by the :class:`SpectralCovariance`
constructor and by ``chain.propagate``'s exit check; the transfer between
skips the checks, and a NaN or inf carries through to the exit.
"""

import math

_PSD_TOL = 1e-9  # is_positive_semidefinite's tolerance, relative to max(1, s11, s22)


class UnphysicalError(ValueError):
    """A parameter or state lies outside the physically meaningful range."""


class _UnreadField(ValueError):
    """A field given to parameters whose form does not read it; ``field`` is its name."""

    def __init__(self, field, reader):
        self.field = field
        super().__init__(f"{field} is not read by {reader}")


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
        v = 10.0 ** (-db / 10.0)
    except OverflowError:
        raise UnphysicalError(f"squeezing depth {db!r} dB has no finite variance") from None
    if v == 0.0:  # past ~3,233 dB
        raise UnphysicalError(f"squeezing depth {db!r} dB has a variance too small for a float")
    return v


def _require(ok, values, message, error=UnphysicalError):
    """Raise error(message) with its {!r} filled by the first element of values where ok is false.

    ok is a numpy bool or bool array; its own all() is several times cheaper
    than np.all on the short arrays and scalars of a spectrum chunk.
    """
    if not ok.all():
        import numpy as np

        raise error(message.format(np.extract(~ok, values)[0].item()))


def _variance(v):
    """A relative variance as float, refused unless finite and positive."""
    v = float(v)
    if not (math.isfinite(v) and v > 0.0):
        raise UnphysicalError(f"relative variance must be positive, got {v!r}")
    return v


def variance_to_db(v):
    """Squeezing depth in dB for a relative variance (exact inverse of db_to_variance)."""
    return -10.0 * math.log10(_variance(v))


def apply_loss(v, eta):
    """Beamsplitter loss on a single-quadrature variance: eta*v + (1 - eta)."""
    v = _variance(v)
    eta = check_efficiency(eta)
    return eta * v + (1.0 - eta)


class _Frozen:
    """Base of the package's value classes, whose fields are the class's annotations, in order.

    As a frozen dataclass would: an instance refuses attribute assignment, and
    ``==``, ``hash`` and ``repr`` read the fields (``==`` only between objects
    of one class).  Each subclass's ``__init__`` stores its fields with one
    ``self.__dict__.update``.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__annotations__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = zip(self.__annotations__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


class SpectralCovariance(_Frozen):
    """Hermitian 2x2 quadrature noise spectral density at one or many sideband frequencies.

    ``s11`` and ``s22`` are the amplitude and phase quadrature variances,
    ``s12`` the (complex) cross term; the 21 element is its conjugate.  Each
    is a scalar or a 1-D array over frequency, and they broadcast together;
    every method works element-wise.  Vacuum is the identity,
    ``SpectralCovariance(1.0, 1.0)``.  Pure squeezed vacuum has det = 1 and
    passive loss can only increase the determinant.  Values are checked when
    built through this constructor; the sideband transfer skips it (see the
    module docstring).
    """

    s11: float
    s22: float
    s12: complex = 0j

    def __init__(self, s11, s22, s12=0j):
        import numpy as np

        self.__dict__.update(s11=s11, s22=s22, s12=s12)
        for label, value in (("s11", s11), ("s22", s22)):
            _require(np.isfinite(value) & (value >= 0.0), value,
                     f"{label} must be finite and >= 0, got {{!r}}")
        _require(np.isfinite(s12), s12, "s12 must be finite, got {!r}")

    def is_positive_semidefinite(self):
        """True where S / max(1, s11, s22), free of overflow, is PSD within 1e-9 (element-wise).

        On two floats, as ``interferometer``'s one-chunk walk passes, the scale
        is the builtin max, so numpy stays out.
        """
        if type(self.s11) is float and type(self.s22) is float:
            scale = max(1.0, self.s11, self.s22)  # np.maximum but at a nan, where both give False
        else:
            import numpy as np

            scale = np.maximum(1.0, np.maximum(self.s11, self.s22))
        a, b, c = self.s11 / scale, self.s22 / scale, abs(self.s12) / scale
        return (a >= -_PSD_TOL) & (b >= -_PSD_TOL) & (a * b - c * c >= -_PSD_TOL)


def _unchecked(s11, s22, s12):
    """A SpectralCovariance built without the constructor's checks, for the sideband transfer."""
    s = object.__new__(SpectralCovariance)
    s.__dict__.update(s11=s11, s22=s22, s12=s12)
    return s


def _apply_pair(s, a, b):
    """M S M^dagger + I - M M^dagger, M multiplying the sidebands by (a, b), |a|, |b| <= 1.

    In the quadrature basis M = [[d, o], [-o, d]], d = (a + b)/2, o = i(a - b)/2.
    With dd = |d|^2, oo = |o|^2, c = d*conj(o) and fill = 1 - (dd + oo):

        s11' = dd*s11 + oo*s22 + 2 Re(c*s12) + fill
        s22' = oo*s11 + dd*s22 - 2 Re(conj(c)*s12) + fill
        s12' = dd*s12 - oo*conj(s12) - c*s11 + conj(c)*s22 + (c - conj(c))

    element-wise; the fill goes in last, so vacuum maps to vacuum bit for bit.
    """
    d = 0.5 * (a + b)
    o = 0.5j * (a - b)
    dd = d.real * d.real + d.imag * d.imag
    oo = o.real * o.real + o.imag * o.imag
    c = d * o.conjugate()  # methods, so the module needs no numpy
    cc = c.conjugate()
    fill = 1.0 - (dd + oo)
    return _unchecked(
        dd * s.s11 + oo * s.s22 + 2.0 * (c * s.s12).real + fill,
        oo * s.s11 + dd * s.s22 - 2.0 * (cc * s.s12).real + fill,
        dd * s.s12 - oo * s.s12.conjugate() - c * s.s11 + cc * s.s22 + (c - cc),
    )
