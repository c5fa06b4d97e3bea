"""Loss budgets and quantum-noise spectra for squeezed-light setups.

The squeezed field of an optical parametric amplifier is propagated through
an ordered chain of lossy optics and detuned cavities to a homodyne
detector, in the two-photon (sideband-pair) quadrature picture.  Everything
is normalized to shot noise; squeezing in dB is positive below shot noise.
No module imports numpy when it loads; the array functions import it when they run.
"""

from .cavity import CavityParams, finesse, reflection
from .chain import (BudgetReport, CavityStage, FrequencyGrid, LossElement, Scenario, build_budget,
                    efficiency_sweep, homodyne_readout, noise_db, propagate)
from .interferometer import NoiseSpectrum, signal_gain, snr_spectrum
from .quadcore import (SpectralCovariance, UnphysicalError, apply_loss, db_to_variance,
                       variance_to_db)
from .scenario_io import ScenarioParseError, format_scenario, load_scenario, parse_scenario
from .source import SourceParams, escape_efficiency, generated_spectrum, pump_parameter

__version__ = "0.1.0"

__all__ = [
    "BudgetReport", "CavityParams", "CavityStage", "FrequencyGrid", "LossElement", "NoiseSpectrum",
    "Scenario", "ScenarioParseError", "SourceParams", "SpectralCovariance", "UnphysicalError",
    "apply_loss", "build_budget", "db_to_variance", "efficiency_sweep", "escape_efficiency",
    "finesse", "format_scenario", "generated_spectrum", "homodyne_readout", "load_scenario",
    "noise_db", "parse_scenario", "propagate", "pump_parameter", "reflection", "signal_gain",
    "snr_spectrum", "variance_to_db",
]
