"""End-to-end propagation path: ordered loss elements and cavities.

A Scenario is a source followed by an ordered chain of stages, each either a
plain efficiency (LossElement) or a detuned cavity (CavityStage), read out by
a homodyne detector at a fixed quadrature angle; the source's escape is the
first loss of :meth:`Scenario.chain`.  The stages compose into one sideband
pair (Caves and Schumaker, PRA 31, 3068 (1985)), A = sqrt(prod eta) *
prod r_c(+omega) on the upper sideband and B = sqrt(prod eta) *
prod conj(r_c(-omega)) on the lower, which ``_sideband_pair`` forms and
:func:`propagate` applies once; the stages' order orders only the budget's rows
and the written [losses].
:func:`propagate` and :func:`noise_db` work on numpy arrays, one frequency
as a one-element array; the budget and the sweep are arithmetic on floats.
"""

import math

from . import cavity as _cavity
from .quadcore import (
    _apply_pair,
    _Frozen,
    _require,
    apply_loss,
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

# a cavity's stage name is also its .scn section name and its [losses] marker
CAVITY_ROLES = ("filter_cavity", "src")


class LossElement(_Frozen):
    """A named, categorized power efficiency in the squeezed-field path."""

    name: str
    eta: float
    category: str = "other"

    def __init__(self, name, eta, category="other"):
        self.__dict__.update(name=name, eta=eta, category=category)
        # the category first, so that a [losses] line refuses it (exit 2) before its eta (exit 3)
        if self.category not in CATEGORIES:
            raise ValueError(
                f"unknown category {self.category!r}; expected one of {', '.join(CATEGORIES)}")
        check_efficiency(self.eta, f"loss element {self.name!r}")
        name = self.name
        if (name.splitlines() != [name] or name != name.strip() or "=" in name
                or name[0] in "#[" or name in CAVITY_ROLES):
            raise ValueError(f"loss element name {name!r} cannot be read back from a scenario")


class CavityStage(_Frozen):
    """A detuned cavity in the chain, named by one of CAVITY_ROLES."""

    name: str
    params: _cavity.CavityParams

    def __init__(self, name, params):
        self.__dict__.update(name=name, params=params)
        if self.name not in CAVITY_ROLES:
            raise ValueError(f"cavity name must be one of {CAVITY_ROLES}, got {self.name!r}")


class FrequencyGrid(_Frozen):
    fmin_hz: float
    fmax_hz: float
    points: int

    def __init__(self, fmin_hz, fmax_hz, points):
        self.__dict__.update(fmin_hz=fmin_hz, fmax_hz=fmax_hz, points=points)
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
        """The grid as an array, refused if too large to allocate or if rounding repeats a value.

        Checked here, not when built: a grid is built for every command, and
        only the ones that read it should pay for the array.
        """
        import numpy as np

        # near intp-max bytes (linspace sizes the array through a float) numpy
        # fails in ways of its own; a smaller grid fails, if at all, in allocation
        if self.points > np.iinfo(np.intp).max // 16:
            raise _too_large(self.points)
        try:
            f = np.linspace(self.fmin_hz, self.fmax_hz, self.points)
        except MemoryError:
            raise _too_large(self.points) from None
        if not (f[1:] > f[:-1]).all():
            raise ValueError("frequency grid must be strictly increasing")
        return f


class Scenario(_Frozen):
    """Immutable description of one propagation experiment."""

    name: str
    source: SourceParams
    stages: tuple = ()
    homodyne_angle: float = 0.0
    grid: FrequencyGrid = FrequencyGrid(5e6, 15e6, 201)

    def __init__(self, name, source, stages=(), homodyne_angle=0.0, grid=grid):
        self.__dict__.update(name=name, source=source, stages=tuple(stages),
                             homodyne_angle=homodyne_angle, grid=grid)
        if not math.isfinite(self.homodyne_angle):
            raise ValueError(f"homodyne_angle must be finite, got {self.homodyne_angle!r}")
        chain = (LossElement("escape", self.source.escape(), "escape"), *self.stages)
        # a stage's name is its key in [losses], so each may appear once
        names = set()
        for s in chain:
            if s.name in names:
                raise ValueError(f"stage {s.name!r} appears twice in the chain")
            names.add(s.name)
        # _eta: the efficiency that the sideband pair applies and build_budget totals;
        # _cavities: the cavities by name, in chain order, whose reflections the pair multiplies;
        # _limits: (name, fsr/4 - |detuning|) of each cavity with an FSR, in chain order, that
        # omega must stay below (arranged so that no term overflows)
        cavities = {s.name: s for s in chain if isinstance(s, CavityStage)}
        self.__dict__.update(
            _chain=chain,
            _eta=math.prod(s.eta for s in chain if isinstance(s, LossElement)),
            _cavities=cavities,
            _limits=tuple([(name, s.params.fsr() / 4.0 - abs(s.params.detuning_hz))
                           for name, s in cavities.items() if s.params.fsr() is not None]))

    def cavity_stage(self, name):
        """The cavity stage of this name, "filter_cavity" or "src", or None."""
        return self._cavities.get(name)

    def chain(self):
        """The stages in beam order, led by the source's escape as a LossElement.

        :func:`propagate` and :func:`build_budget` both walk this one chain.
        """
        return self._chain


def _frequencies(frequencies):
    """One frequency or a sequence of them as a 1-D float array."""
    import numpy as np

    return np.atleast_1d(np.asarray(frequencies, dtype=float))


def _sideband_pair(sc, omega_hz):
    """The chain's pair (A, B) of the module docstring at omega_hz, a float or an array.

    The caller checks range and finiteness.
    """
    a = b = math.sqrt(sc._eta)
    for stage in sc._cavities.values():
        p = stage.params
        a = a * _cavity.reflection(p, omega_hz)
        b = b * _cavity.reflection(p, -omega_hz).conjugate()
    return a, b


def propagate(sc, omega_hz):
    """Covariance at the homodyne input for sideband frequency omega_hz.

    omega_hz is one frequency or a 1-D array of finite, positive frequencies
    in Hz, worked on as an array; the scenario's display grid does not bound
    it.  This is the one place that decides the model's range: each cavity
    with an FSR is a single Lorentzian only for omega + |detuning| < fsr/4
    (one given by hwhm alone has no bound).  ``sc.chain()`` is one sideband
    pair (see the module docstring), applied at all frequencies at once; a
    term that overflows counts as its exact limit (the source far above its
    bandwidth is vacuum).  Out of range or a non-finite result raises
    UnphysicalError naming the first bad frequency; lost positivity is an
    internal error.
    """
    import numpy as np

    omega_hz = _frequencies(omega_hz)
    _require(np.isfinite(omega_hz) & (omega_hz > 0.0), omega_hz,
             "omega_hz must be finite and > 0, got {!r}", ValueError)
    for name, limit in sc._limits:
        _require(omega_hz < limit, omega_hz, f"{name}: {{!r}} Hz plus |detuning| is past fsr/4")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = _apply_pair(generated_spectrum(sc.source, omega_hz), *_sideband_pair(sc, omega_hz))
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
    """Homodyne noise in dB below shot noise at each frequency, as an array.

    Shot noise is the vacuum fixed point of the chain (relative variance 1),
    so no reference run is needed.  The array is propagated whole, so the
    temporaries grow with it; ``sqzbudget spectrum`` passes one chunk at a time.
    """
    import numpy as np

    v = homodyne_readout(propagate(sc, frequencies), sc.homodyne_angle)
    _require(np.isfinite(v) & (v > 0.0), v, "relative variance must be positive, got {!r}")
    return -10.0 * np.log10(v)


def _too_large(n):
    return MemoryError(f"a grid of {n} points is too large to allocate")


def _linspace(start, stop, n):
    """``numpy.linspace(start, stop, n).tolist()`` value for value, without numpy.

    The list is allocated first, so a grid too large to hold fails at once.
    """
    try:
        grid = [0.0] * n
    except (MemoryError, OverflowError):  # OverflowError: n past sys.maxsize
        raise _too_large(n) from None
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


class BudgetReport(_Frozen):
    """Loss budget of a scenario: per-element rows, category subtotals, totals.

    The rows are the LossElements of ``Scenario.chain()``, escape first; the
    total is their product (the frequency-independent part of the chain).
    """

    scenario: str
    rows: tuple
    subtotals: tuple  # (category, product) pairs in CATEGORIES order
    total: float
    input_db: float
    output_db: float

    def __init__(self, scenario, rows, subtotals, total, input_db, output_db):
        self.__dict__.update(scenario=scenario, rows=rows, subtotals=subtotals, total=total,
                             input_db=input_db, output_db=output_db)


def build_budget(sc):
    # lists first: tuple() of a generator allocates 10 slots and shrinks, so each
    # call parks one more tuple on CPython's free lists, ~1 MB of peak RSS in all
    rows = [s for s in sc.chain() if isinstance(s, LossElement)]
    subtotals = [(cat, math.prod(r.eta for r in rows if r.category == cat))
                 for cat in CATEGORIES if any(r.category == cat for r in rows)]
    input_db = sc.source.generated_db_at_dc()
    output_db = variance_to_db(apply_loss(db_to_variance(input_db), sc._eta))
    return BudgetReport(sc.name, tuple(rows), tuple(subtotals), sc._eta, input_db, output_db)
