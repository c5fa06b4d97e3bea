"""Single-ended detuned optical cavity and its two-photon quadrature transfer.

Conventions
-----------
Positive ``detuning_hz`` places the cavity resonance at +detuning relative to
the carrier, so the upper sideband at omega = +detuning is resonant.  The
reflection coefficient uses the single-resonance (Lorentzian) input-output
relation

    r(omega) = 2*kappa_in / (kappa_tot - i*2*pi*(omega - detuning)) - 1

with kappa_tot = 2*pi*hwhm and kappa_in/kappa_tot = t_in/(t_in + loss_rt),
where hwhm is :meth:`CavityParams.hwhm`: the given ``hwhm_hz``, or the half
width derived from the mirror finesse when a :class:`CavityParams` is built.
This drops the free-spectral-range periodicity of the full Airy response,
which is a good approximation while |omega - detuning| stays well below the
FSR (:meth:`CavityParams.fsr`).  The functions here compute past fsr/4 too;
:func:`sqzbudget.chain.propagate` alone refuses sidebands there.

A detuned cavity multiplies the upper sideband at omega by a = r(+omega) and
the lower by b = conj(r(-omega)); in the quadrature basis that is the transfer
T = [[d, o], [-o, d]] with d = (a + b)/2 and o = i(a - b)/2.  For a lossless
cavity T is (up to a global phase) a rotation of the squeezing ellipse; with
round-trip loss the missing power is refilled with vacuum, and a covariance
maps to S' = T S T^dagger + I - T T^dagger (``quadcore._apply_pair``).
Stages compose by multiplying their sideband pairs (Caves and Schumaker,
PRA 31, 3068 (1985); Kimble et al., PRD 65, 022002 (2001) chain filter
cavities this way), so ``chain._sideband_pair`` multiplies each cavity's
(a, b) into the chain's one pair.  The rotation is read off the output as the
angle of its squeezing ellipse, (1/2) atan2(2 Re s12', s11' - s22').  Every
function takes omega as a scalar or a 1-D array and works element-wise.
"""

import math

from .quadcore import UnphysicalError, _Frozen, _UnreadField

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre


class CavityParams(_Frozen):
    """Physical description of a single-ended cavity.

    ``t_in`` is the input-coupler power transmission, ``loss_rt`` the
    round-trip power loss through all other channels.  The fields hold what
    was given; construction derives the rates, read through :meth:`fsr` and
    :meth:`hwhm`: fsr = c/(2L) unless ``fsr_hz`` is given, and
    hwhm = fsr/(2*finesse) unless ``hwhm_hz`` is given (explicit
    configuration wins over geometry, so a cavity may be specified by hwhm
    alone); a derived rate of 0 or inf is refused.  A given ``fsr_hz``
    leaves ``length_m`` unread, so the two together are refused.  A lossy
    cavity needs ``t_in`` to fix its coupling ratio.
    A changed copy built through the constructor derives the rates again,
    and ``==`` compares the given fields.
    """

    t_in: float | None = None
    loss_rt: float = 0.0
    detuning_hz: float = 0.0
    length_m: float | None = None
    fsr_hz: float | None = None
    hwhm_hz: float | None = None

    def __init__(self, t_in=None, loss_rt=0.0, detuning_hz=0.0, length_m=None, fsr_hz=None,
                 hwhm_hz=None):
        self.__dict__.update(t_in=t_in, loss_rt=loss_rt, detuning_hz=detuning_hz,
                             length_m=length_m, fsr_hz=fsr_hz, hwhm_hz=hwhm_hz)
        if self.length_m is not None and self.fsr_hz is not None:
            raise _UnreadField("length_m", "a cavity whose fsr is given")
        if self.t_in is not None and not 0.0 <= self.t_in <= 1.0:
            raise UnphysicalError(f"t_in must lie in [0, 1], got {self.t_in!r}")
        if not 0.0 <= self.loss_rt < 1.0:
            raise UnphysicalError(f"loss_rt must lie in [0, 1), got {self.loss_rt!r}")
        if self.t_in is not None and self.t_in + self.loss_rt >= 1.0:
            raise UnphysicalError("total round-trip power removal t_in + loss_rt must be < 1")
        for label, value in (("length_m", self.length_m), ("fsr_hz", self.fsr_hz),
                             ("hwhm_hz", self.hwhm_hz)):
            if value is not None and not 0.0 < value < math.inf:
                raise UnphysicalError(f"{label} must be positive and finite, got {value!r}")
        if not math.isfinite(self.detuning_hz):
            raise UnphysicalError(f"detuning_hz must be finite, got {self.detuning_hz!r}")
        fsr = self.fsr_hz
        if fsr is None and self.length_m is not None:
            fsr = (SPEED_OF_LIGHT / 2.0) / self.length_m  # c/2 is exact; 2L overflows past ~9e307 m
        hwhm = self.hwhm_hz
        if hwhm is None:
            if fsr is None or self.t_in is None:
                raise ValueError("need length_m (or fsr_hz) and t_in to derive cavity rates")
            hwhm = fsr / (2.0 * finesse(self.t_in, self.loss_rt))
        if self.loss_rt != 0.0 and self.t_in is None:
            raise ValueError("a lossy cavity needs t_in to fix the coupling ratio")
        for label, value in (("fsr", fsr), ("hwhm", hwhm)):
            if value is not None and not 0.0 < value < math.inf:
                raise UnphysicalError(f"derived {label} must be positive and finite, got {value!r}")
        # _coupling: the fraction of the total decay rate that goes through the input coupler
        self.__dict__.update(_fsr=fsr, _hwhm=hwhm, _coupling=(
            1.0 if self.loss_rt == 0.0 else self.t_in / (self.t_in + self.loss_rt)))

    def fsr(self):
        """Free spectral range in Hz, given or from the length; None without either."""
        return self._fsr

    def hwhm(self):
        """Resonance half width (HWHM) in Hz, given or from fsr and finesse."""
        return self._hwhm


def finesse(t_in, loss_rt=0.0):
    """Finesse of a two-mirror resonator with couplings t_in and loss_rt."""
    r1 = math.sqrt(1.0 - t_in)
    r2 = math.sqrt(1.0 - loss_rt)
    if t_in <= 0.0 or r1 * r2 == 1.0:  # a t_in below double precision counts as 0
        raise UnphysicalError(f"t_in = {t_in!r} leaves the cavity uncoupled")
    return math.pi * math.sqrt(r1 * r2) / (1.0 - r1 * r2)


def reflection(p, omega_hz):
    """Complex amplitude reflectivity at signed sideband omega_hz; propagate decides its range."""
    x = (omega_hz - p.detuning_hz) / p._hwhm
    return 2.0 * p._coupling / (1.0 - 1j * x) - 1.0
