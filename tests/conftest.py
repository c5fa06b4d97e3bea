import importlib.resources
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sqzbudget
from sqzbudget.cavity import reflection
from sqzbudget.quadcore import SpectralCovariance, _unchecked
from sqzbudget.scenario_io import parse_scenario

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def bundled_scenario_path(name):
    return str(importlib.resources.files("sqzbudget") / "scenarios" / f"{name}.scn")


def load_bundled(name):
    path = importlib.resources.files("sqzbudget") / "scenarios" / f"{name}.scn"
    return parse_scenario(path.read_text(encoding="utf-8"), name=name)


def fresh_python(code, *args):
    """Run code with args in a fresh interpreter that imports the sqzbudget the tests import."""
    src = str(pathlib.Path(sqzbudget.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-W", "error", "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def first_difference(got, expected):
    """None where the texts agree, else the first line where they part.

    It keeps a failure on a long CSV short: pytest's diff of two texts of
    thousands of lines takes minutes.
    """
    if got == expected:
        return None
    lines = zip(got.splitlines(keepends=True), expected.splitlines(keepends=True))
    return next(((n, a, b) for n, (a, b) in enumerate(lines) if a != b), "lengths differ")


def replace(obj, **changes):
    """A copy of obj with the given fields changed, built through its constructor.

    So the constructor's checks, and the rates or the chain it derives, run again.
    """
    fields = {name: getattr(obj, name) for name in type(obj).__annotations__}
    return type(obj)(**(fields | changes))


def matrix(s):
    """The covariance s at one frequency as a 2x2 complex ndarray."""
    return np.array([[s.s11, s.s12], [np.conj(s.s12), s.s22]], dtype=complex)


def det(s):
    """The determinant of the covariance s, element-wise: 1 for a pure state, more after loss."""
    return s.s11 * s.s22 - abs(s.s12) ** 2


def squeezed_state(db, theta):
    """Pure state R diag(v, 1/v) R^T, v = 10^(-db/10), squeezed along angle theta."""
    v = 10.0 ** (-db / 10.0)
    c, s = math.cos(theta), math.sin(theta)
    return SpectralCovariance(c * c * v + s * s / v, s * s * v + c * c / v,
                              complex(c * s * (v - 1.0 / v)))


def transfer(s, a, b):
    """M S M^dagger + I - M M^dagger on any covariance s, M multiplying the sidebands by (a, b).

    The reference for ``quadcore._apply_pair``, which maps only the diagonal
    state that the package's chains meet.  With M = [[d, o], [-o, d]],
    d = (a + b)/2, o = i(a - b)/2, dd = |d|^2, oo = |o|^2, c = d*conj(o) and
    fill = 1 - (dd + oo), element-wise:

        s11' = dd*s11 + oo*s22 + 2 Re(c*s12) + fill
        s22' = oo*s11 + dd*s22 - 2 Re(conj(c)*s12) + fill
        s12' = dd*s12 - oo*conj(s12) - c*s11 + conj(c)*s22 + (c - conj(c))

    The fill goes in last, as in the kernel.  Unchecked like the kernel's
    result, so that the image of the zero state, I - M M^dagger, can be read.
    """
    d = 0.5 * (a + b)
    o = 0.5j * (a - b)
    dd = d.real * d.real + d.imag * d.imag
    oo = o.real * o.real + o.imag * o.imag
    c = d * o.conjugate()
    cc = c.conjugate()
    fill = 1.0 - (dd + oo)
    return _unchecked(
        dd * s.s11 + oo * s.s22 + 2.0 * (c * s.s12).real + fill,
        oo * s.s11 + dd * s.s22 - 2.0 * (cc * s.s12).real + fill,
        dd * s.s12 - oo * s.s12.conjugate() - c * s.s11 + cc * s.s22 + (c - cc),
    )


def loss(s, eta):
    """A beamsplitter loss on a covariance: both sidebands multiplied by sqrt(eta)."""
    r = math.sqrt(eta)
    return transfer(s, r, r)


def reflect(s, p, omega_hz):
    """The covariance s reflected off the cavity p at omega_hz: T S T^dagger + I - T T^dagger.

    The upper sideband is multiplied by r(+omega), the lower by conj(r(-omega)).
    """
    return transfer(s, reflection(p, omega_hz), reflection(p, -omega_hz).conjugate())


def ellipse_angle(s):
    """Angle of the major axis of the squeezing ellipse of s, in [-pi/2, pi/2]."""
    return 0.5 * math.atan2(2.0 * s.s12.real, s.s11 - s.s22)


@pytest.fixture(scope="session")
def tabletop():
    return load_bundled("tabletop")


@pytest.fixture(scope="session")
def geo600():
    return load_bundled("geo600")


@pytest.fixture(scope="session")
def vacuum_scenario():
    return load_bundled("vacuum")


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN_DIR
