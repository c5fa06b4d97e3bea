"""Below-threshold OPA squeezed-light source: the state inside the OPA, before escape.

Two source models are provided:

``physical``
    Textbook below-threshold OPA (Collett and Gardiner, PRA 30, 1386 (1984)).
    The pump parameter x follows from the measured classical power gain via
    G = 1/(1-x)^2, and with gamma the cavity half width (HWHM)

        V_minus(omega) = 1 - 4x / ((1+x)^2 + (omega/gamma)^2)
        V_plus(omega)  = 1 + 4x / ((1-x)^2 + (omega/gamma)^2)

``direct``
    Calibrated to a stated generated squeezing depth at zero frequency.  The
    squeezing power 1 - V(omega) rolls off as a Lorentzian of half width
    gamma.  This mode reproduces observed numbers when technical noise makes
    the textbook model over-optimistic for a given classical gain.

Both states are pure, V- * V+ = 1, and the physical V- is the direct
Lorentzian with v0 = ((1-x)/(1+x))^2 and half width gamma*(1+x).  So
:class:`SourceParams` derives (v0, width) once, and :func:`generated_spectrum`
returns diag(V-, 1/V-) on an array of frequencies, with
V- = 1 - (1 - v0)/(1 + (omega/width)^2) from :func:`_squeezed_variance`, which
``interferometer``'s one-chunk walk calls on floats.  The escape is the first
loss of ``Scenario.chain()``, which both ``chain.propagate`` and
``chain.build_budget`` walk.
"""

import math

from .quadcore import (SpectralCovariance, UnphysicalError, _Frozen, _require, _UnreadField,
                       check_efficiency, db_to_variance)

PUMP_PARAMETER_LIMIT = 0.99  # V_plus diverges as x -> 1

# the form of the source that reads each optional field: a mode, or the escape's pair
_READ_BY = {"gen_db_at_dc": "direct", "classical_gain": "physical",
            "t_out": "t_out and loss_rt", "loss_rt": "t_out and loss_rt"}


def escape_efficiency(t_out, loss_rt):
    """Output coupling decay rate over total decay rate: t/(t + l)."""
    if t_out <= 0.0:
        raise UnphysicalError("t_out = 0 means nothing escapes the cavity")
    if not 0.0 < t_out < 1.0 or not 0.0 <= loss_rt < 1.0 or t_out + loss_rt >= 1.0:
        raise UnphysicalError(
            f"need t_out in (0,1), loss_rt in [0,1), t_out + loss_rt < 1; "
            f"got ({t_out!r}, {loss_rt!r})"
        )
    return t_out / (t_out + loss_rt)


def pump_parameter(classical_gain):
    """Pump parameter x from the classical power gain G = 1/(1-x)^2."""
    if not math.isfinite(classical_gain) or classical_gain < 1.0:
        raise UnphysicalError(f"classical gain must be >= 1, got {classical_gain!r}")
    return 1.0 - 1.0 / math.sqrt(classical_gain)


class SourceParams(_Frozen):
    """OPA description: squeezing strength, escape, and bandwidth.

    mode is "direct" or "physical".  The escape efficiency may be given directly
    (``escape_eta``) or via the coupler/loss pair (``t_out``, ``loss_rt``); either is
    validated once, when the params are built.  ``bandwidth_hz`` is the OPA cavity HWHM.
    A field that the mode or the escape's form does not read is refused.
    """

    mode: str
    bandwidth_hz: float
    gen_db_at_dc: float | None = None      # direct: generated depth at DC, inside the OPA
    classical_gain: float | None = None    # physical
    t_out: float | None = None
    loss_rt: float | None = None
    escape_eta: float | None = None

    def __init__(self, mode, bandwidth_hz, gen_db_at_dc=None, classical_gain=None, t_out=None,
                 loss_rt=None, escape_eta=None):
        self.__dict__.update(mode=mode, bandwidth_hz=bandwidth_hz, gen_db_at_dc=gen_db_at_dc,
                             classical_gain=classical_gain, t_out=t_out, loss_rt=loss_rt,
                             escape_eta=escape_eta)
        if self.mode not in ("direct", "physical"):
            raise ValueError(f'source mode must be "direct" or "physical", got {self.mode!r}')
        escape = "escape_eta" if self.escape_eta is not None else "t_out and loss_rt"
        for name, form in _READ_BY.items():
            if form not in (self.mode, escape) and getattr(self, name) is not None:
                raise _UnreadField(name, f"a {self.mode} source with {escape}")
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise UnphysicalError(
                f"bandwidth_hz must be positive and finite, got {self.bandwidth_hz!r}")
        if self.escape_eta is None and (self.t_out is None or self.loss_rt is None):
            raise ValueError("source needs escape_eta or the (t_out, loss_rt) pair")
        if self.mode == "direct":
            if self.gen_db_at_dc is None or not math.isfinite(self.gen_db_at_dc):
                raise ValueError("direct mode needs a finite gen_db_at_dc")
            v0, width = db_to_variance(self.gen_db_at_dc), self.bandwidth_hz
        else:
            if self.classical_gain is None:
                raise ValueError("physical mode needs classical_gain")
            x = pump_parameter(self.classical_gain)
            if x >= PUMP_PARAMETER_LIMIT:
                raise UnphysicalError(
                    f"pump parameter >= {PUMP_PARAMETER_LIMIT} is treated as at threshold"
                )
            v0, width = ((1.0 - x) / (1.0 + x)) ** 2, self.bandwidth_hz * (1.0 + x)
            if width == math.inf:
                raise UnphysicalError(f"derived source width must be finite, got {width!r}")
        eta = (escape_efficiency(self.t_out, self.loss_rt) if self.escape_eta is None
               else check_efficiency(self.escape_eta, "escape_eta"))
        self.__dict__.update(_escape=eta, _v0=v0, _width=width)

    def escape(self):
        """Escape efficiency, from escape_eta or the coupler/loss pair."""
        return self._escape

    def generated_db_at_dc(self):
        """Squeezing depth generated inside the OPA at zero frequency, in dB."""
        if self.mode == "direct":
            return self.gen_db_at_dc  # as stated: -10 log10(v0) may differ in the last bit
        return -10.0 * math.log10(self._v0)


def _squeezed_variance(p, omega_hz):
    """V-, the OPA's squeezed variance at sideband omega_hz (a float or an array).

    Far above the width u*u overflows to inf and V- to 1, its limit: silently
    for a float, under the caller's np.errstate for an array.
    """
    u = omega_hz / p._width
    return 1.0 - (1.0 - p._v0) / (1.0 + u * u)


def generated_spectrum(p, omega_hz):
    """The OPA's pure state, before escape, at each sideband of the array omega_hz."""
    import numpy as np

    vm = _squeezed_variance(p, omega_hz)
    _require(np.greater(vm, 0.0), omega_hz, "squeezed variance is not positive at {!r} Hz")
    return SpectralCovariance(vm, 1.0 / vm)
