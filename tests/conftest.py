import importlib.resources
import math
import pathlib

import numpy as np
import pytest

from sqzbudget.quadcore import SpectralCovariance, _apply_pair
from sqzbudget.scenario_io import parse_scenario

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def bundled_scenario_path(name):
    return str(importlib.resources.files("sqzbudget") / "scenarios" / f"{name}.scn")


def load_bundled(name):
    path = importlib.resources.files("sqzbudget") / "scenarios" / f"{name}.scn"
    return parse_scenario(path.read_text(encoding="utf-8"), name=name)


def matrix(s):
    """The covariance s at one frequency as a 2x2 complex ndarray."""
    return np.array([[s.s11, s.s12], [np.conj(s.s12), s.s22]], dtype=complex)


def squeezed_state(db, theta):
    """Pure state R diag(v, 1/v) R^T, v = 10^(-db/10), squeezed along angle theta."""
    v = 10.0 ** (-db / 10.0)
    c, s = math.cos(theta), math.sin(theta)
    return SpectralCovariance(c * c * v + s * s / v, s * s * v + c * c / v,
                              complex(c * s * (v - 1.0 / v)))


def loss(s, eta):
    """A beamsplitter loss on a covariance: both sidebands multiplied by sqrt(eta)."""
    r = math.sqrt(eta)
    return _apply_pair(s, r, r)


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
