"""End-to-end propagation path: ordered loss elements and cavities.

A Scenario is a source followed by an ordered chain of stages, each either a
plain efficiency (LossElement) or a detuned cavity (CavityStage), read out by
a homodyne detector at a fixed quadrature angle.  Frequency-independent
losses commute and compose multiplicatively; cavities are frequency
dependent and must keep their place in the chain.
"""

import math
from dataclasses import dataclass, field

from . import cavity as _cavity
from .quadcore import (
    _require,
    apply_loss,
    apply_loss_cov,
    check_efficiency,
    db_to_variance,
    variance_to_db,
)
from .source import SourceParams, generated_spectrum

CATEGORIES = (
    "escape",
    "mode_matching",
    "isolator_rotator",
    "photodiode",
    "intra_cavity",
    "other",
)

# a cavity's role is also its .scn section name and its [losses] marker
CAVITY_ROLES = ("filter_cavity", "src")

CHUNK_POINTS = 2048  # grid points propagated (and written as CSV rows) together


@dataclass(frozen=True)
class LossElement:
    """A named, categorized power efficiency in the squeezed-field path."""

    name: str
    eta: float
    category: str = "other"

    def __post_init__(self):
        check_efficiency(self.eta, f"loss element {self.name!r}")
        name = self.name
        if (name.splitlines() != [name] or name != name.strip() or "=" in name
                or name[0] in "#[" or name in CAVITY_ROLES):
            raise ValueError(f"loss element name {name!r} cannot be read back from a scenario")
        if self.category not in CATEGORIES:
            raise ValueError(
                f"unknown category {self.category!r}; expected one of {CATEGORIES}"
            )


@dataclass(frozen=True)
class CavityStage:
    """A detuned cavity in the chain, tagged by its role, one of CAVITY_ROLES."""

    role: str
    params: _cavity.CavityParams

    def __post_init__(self):
        if self.role not in CAVITY_ROLES:
            raise ValueError(f"cavity role must be one of {CAVITY_ROLES}, got {self.role!r}")


@dataclass(frozen=True)
class FrequencyGrid:
    fmin_hz: float
    fmax_hz: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.fmin_hz) and math.isfinite(self.fmax_hz)):
            raise ValueError(
                f"grid bounds must be finite, got [{self.fmin_hz!r}, {self.fmax_hz!r}] Hz")
        if not (self.fmin_hz > 0.0 and self.fmax_hz > self.fmin_hz):
            raise ValueError("need 0 < fmin_hz < fmax_hz")
        if isinstance(self.points, bool) or not isinstance(self.points, int):
            raise ValueError(f"grid points must be an integer, got {self.points!r}")
        if self.points < 2:
            raise ValueError("need at least 2 grid points")

    def frequencies(self):
        """The grid as an array, refused if rounding repeats a value.

        Checked here, not when built: a grid is built for every command, and
        only the ones that read it should pay for the array.
        """
        import numpy as np

        f = np.linspace(self.fmin_hz, self.fmax_hz, self.points)
        if not (f[1:] > f[:-1]).all():
            raise ValueError("frequency grid must be strictly increasing")
        return f


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one propagation experiment."""

    name: str
    source: SourceParams
    stages: tuple = ()
    homodyne_angle: float = 0.0
    grid: FrequencyGrid = field(default_factory=lambda: FrequencyGrid(5e6, 15e6, 201))

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not math.isfinite(self.homodyne_angle):
            raise ValueError(f"homodyne_angle must be finite, got {self.homodyne_angle!r}")
        # a stage's name is its key in [losses], so each may appear once
        names = set()
        for s in self.stages:
            name = s.role if isinstance(s, CavityStage) else s.name
            if name in names:
                raise ValueError(f"stage {name!r} appears twice in the chain")
            names.add(name)

    def cavity_stage(self, role):
        """The stage of the cavity with this role ("filter_cavity" or "src"), or None."""
        for s in self.stages:
            if isinstance(s, CavityStage) and s.role == role:
                return s
        return None

    def loss_elements(self):
        return [s for s in self.stages if isinstance(s, LossElement)]


def total_efficiency(elements):
    """Product of element efficiencies; 1.0 for an empty chain."""
    total = 1.0
    for e in elements:
        total *= e.eta
    return total


def propagate(sc, omega_hz):
    """Covariance at the homodyne input for sideband frequency omega_hz.

    omega_hz is a scalar or a 1-D array of finite, positive frequencies in
    Hz; the scenario's display grid does not bound it.  This is the one place
    that decides the model's range: each cavity with an FSR is a single
    Lorentzian only for omega + |detuning| < fsr/4 (one given by hwhm alone
    has no bound).  The stages fold over all frequencies at once; a term that
    overflows counts as its exact limit (the source far above its bandwidth
    is vacuum).  Out of range or a non-finite result raises UnphysicalError
    naming the first bad frequency; lost positivity is an internal error.
    """
    import numpy as np

    _require(np.isfinite(omega_hz) & np.greater(omega_hz, 0.0), omega_hz,
             "omega_hz must be finite and > 0, got {!r}", ValueError)
    for stage in sc.stages:
        if isinstance(stage, CavityStage) and stage.params.fsr() is not None:
            # omega + |detuning| < fsr/4, arranged so that no term overflows
            bound = stage.params.fsr() / 4.0 - abs(stage.params.detuning_hz)
            _require(np.less(omega_hz, bound), omega_hz,
                     f"{stage.role}: {{!r}} Hz plus |detuning| is past fsr/4")
    with np.errstate(over="ignore", invalid="ignore"):
        s = generated_spectrum(sc.source, omega_hz)
        for stage in sc.stages:
            if isinstance(stage, LossElement):
                s = apply_loss_cov(s, stage.eta)
            else:
                s = _cavity.apply_cavity(s, stage.params, omega_hz)
        ok = np.isfinite(s.s11) & np.isfinite(s.s22) & np.isfinite(s.s12)
        _require(ok, omega_hz, "propagated covariance is not finite at {!r} Hz")
        _require(s.is_positive_semidefinite(), omega_hz, "internal error: propagated "
                 "covariance is not positive semidefinite at {!r} Hz", RuntimeError)
    return s


def homodyne_readout(s, theta):
    """Measured relative variance at quadrature angle theta (0 = amplitude)."""
    c = math.cos(theta)
    sn = math.sin(theta)
    return c * c * s.s11 + sn * sn * s.s22 + 2.0 * c * sn * s.s12.real


def noise_db(sc, frequencies):
    """Homodyne noise in dB below shot noise at each frequency.

    Shot noise is the vacuum fixed point of the chain (relative variance 1),
    so no reference run is needed.  The grid is propagated CHUNK_POINTS at a
    time, which keeps the temporaries the same size at any grid length.
    """
    import numpy as np

    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    v = np.empty_like(freqs)
    for start in range(0, freqs.size, CHUNK_POINTS):
        part = slice(start, start + CHUNK_POINTS)
        v[part] = homodyne_readout(propagate(sc, freqs[part]), sc.homodyne_angle)
    _require(np.isfinite(v) & (v > 0.0), v, "relative variance must be positive, got {!r}")
    return -10.0 * np.log10(v)


def _linspace(start, stop, n):
    """``numpy.linspace(start, stop, n).tolist()`` value for value, without numpy.

    The list is allocated first, so a grid too large to hold fails at once.
    """
    try:
        grid = [0.0] * n
    except (MemoryError, OverflowError):  # OverflowError: n past sys.maxsize
        raise MemoryError(f"a grid of {n} points is too large to allocate") from None
    delta = stop - start
    step = delta / (n - 1)
    for i in range(n - 1):
        # linspace's own arithmetic, with its branch for a step that underflows to 0
        grid[i] = (i * step if step else i / (n - 1) * delta) + start
    grid[-1] = float(stop)
    return grid


def efficiency_sweep(input_db, eta_min, eta_max, n):
    """Observed squeezing versus detection efficiency on a uniform eta grid."""
    if not (0.0 <= eta_min <= eta_max <= 1.0):
        raise ValueError(f"need 0 <= eta_min <= eta_max <= 1, got ({eta_min!r}, {eta_max!r})")
    if n < 2:
        raise ValueError("need at least 2 sweep points")
    v_in = db_to_variance(input_db)
    return [(eta, variance_to_db(apply_loss(v_in, eta))) for eta in _linspace(eta_min, eta_max, n)]


@dataclass(frozen=True)
class BudgetReport:
    """Loss budget of a scenario: per-element rows, category subtotals, totals.

    The escape efficiency of the source appears as the first row; the total
    is the product of all rows (the frequency-independent part of the chain).
    """

    scenario: str
    rows: tuple
    subtotals: tuple  # (category, product) pairs in CATEGORIES order
    total: float
    input_db: float
    output_db: float


def build_budget(sc):
    rows = [LossElement("escape", sc.source.escape(), "escape")]
    rows.extend(sc.loss_elements())
    subtotals = []
    for cat in CATEGORIES:
        members = [r for r in rows if r.category == cat]
        if members:
            subtotals.append((cat, total_efficiency(members)))
    total = total_efficiency(rows)
    input_db = sc.source.generated_db_at_dc()
    output_db = variance_to_db(apply_loss(db_to_variance(input_db), total))
    return BudgetReport(
        scenario=sc.name,
        rows=tuple(rows),
        subtotals=tuple(subtotals),
        total=total,
        input_db=input_db,
        output_db=output_db,
    )
