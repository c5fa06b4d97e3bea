"""Below-threshold OPA squeezed-light source.

Two source models are provided:

``physical``
    Textbook below-threshold OPA.  The pump parameter x follows from the
    measured classical power gain via G = 1/(1-x)^2, and the output
    quadrature variances at sideband frequency omega are

        V_minus(omega) = 1 - eta_esc * 4x / ((1+x)^2 + (omega/gamma)^2)
        V_plus(omega)  = 1 + eta_esc * 4x / ((1-x)^2 + (omega/gamma)^2)

    with gamma the cavity half width (HWHM) and eta_esc the escape
    efficiency.  Before escape the state is pure: V-*V+ = 1 at every omega.

``direct``
    Calibrated to a stated generated squeezing depth at zero frequency.  The
    squeezing power 1 - V(omega) rolls off as a Lorentzian of half width
    gamma, the anti-squeezed quadrature is fixed by purity before escape,
    and the escape loss is applied afterwards.  This mode reproduces
    observed numbers when technical noise makes the textbook model
    over-optimistic for a given classical gain.

Both return an amplitude-quadrature-squeezed covariance diag(V-, V+).
"""

import math
from dataclasses import dataclass

from .quadcore import SpectralCovariance, UnphysicalError, _require, db_to_variance

PUMP_PARAMETER_LIMIT = 0.99  # V_plus diverges as x -> 1


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


@dataclass(frozen=True)
class SourceParams:
    """OPA description: squeezing strength, escape, and bandwidth.

    mode is "direct" or "physical".  The escape efficiency may be given
    directly (``escape_eta``) or via the coupler/loss pair
    (``t_out``, ``loss_rt``); either is validated once, when the params
    are built.  ``bandwidth_hz`` is the OPA cavity HWHM.
    """

    mode: str
    bandwidth_hz: float
    gen_db_at_dc: float | None = None      # direct: generated depth at DC, inside the OPA
    classical_gain: float | None = None    # physical
    t_out: float | None = None
    loss_rt: float | None = None
    escape_eta: float | None = None

    def __post_init__(self):
        if self.mode not in ("direct", "physical"):
            raise ValueError(f'source mode must be "direct" or "physical", got {self.mode!r}')
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise UnphysicalError(
                f"bandwidth_hz must be positive and finite, got {self.bandwidth_hz!r}")
        if self.escape_eta is None and (self.t_out is None or self.loss_rt is None):
            raise ValueError("source needs escape_eta or the (t_out, loss_rt) pair")
        if self.mode == "direct":
            if self.gen_db_at_dc is None or not math.isfinite(self.gen_db_at_dc):
                raise ValueError("direct mode needs a finite gen_db_at_dc")
        else:
            if self.classical_gain is None:
                raise ValueError("physical mode needs classical_gain")
            if pump_parameter(self.classical_gain) >= PUMP_PARAMETER_LIMIT:
                raise UnphysicalError(
                    f"pump parameter >= {PUMP_PARAMETER_LIMIT} is treated as at threshold"
                )
        if self.escape_eta is None:
            eta = escape_efficiency(self.t_out, self.loss_rt)
        elif 0.0 <= self.escape_eta <= 1.0:
            eta = self.escape_eta
        else:
            raise UnphysicalError(f"escape_eta must lie in [0, 1], got {self.escape_eta!r}")
        object.__setattr__(self, "_escape", eta)

    def escape(self):
        """Escape efficiency, from escape_eta or the coupler/loss pair."""
        return self._escape

    def generated_db_at_dc(self):
        """Squeezing depth generated inside the OPA at zero frequency, in dB."""
        if self.mode == "direct":
            return self.gen_db_at_dc
        x = pump_parameter(self.classical_gain)
        return 20.0 * math.log10((1.0 + x) / (1.0 - x))


def generated_spectrum(p, omega_hz):
    """Covariance at the OPA output (escape applied) at sideband omega_hz (scalar or array)."""
    import numpy as np

    eta = p.escape()
    u2 = np.square(omega_hz / p.bandwidth_hz)  # numpy even for a float: overflow obeys np.errstate
    if p.mode == "physical":
        x = pump_parameter(p.classical_gain)
        vm = 1.0 - eta * 4.0 * x / ((1.0 + x) ** 2 + u2)
        vp = 1.0 + eta * 4.0 * x / ((1.0 - x) ** 2 + u2)
    else:
        v0 = db_to_variance(p.gen_db_at_dc)
        vm_pre = 1.0 - (1.0 - v0) / (1.0 + u2)
        _require(np.greater(vm_pre, 0.0), omega_hz, "squeezed variance is not positive at {!r} Hz")
        # the escape loss, as quadcore.apply_loss computes it, on finite variances:
        # vm_pre > 0 is one minus a float below 1, so 1/vm_pre <= 2**53
        vm = eta * vm_pre + (1.0 - eta)
        vp = eta * (1.0 / vm_pre) + (1.0 - eta)
    return SpectralCovariance(vm, vp)
