"""Loss budgets and quantum-noise spectra for squeezed-light setups.

The squeezed field of an optical parametric amplifier is propagated through
an ordered chain of lossy optics and detuned cavities to a homodyne
detector, in the two-photon (sideband-pair) quadrature picture.  Everything
is normalized to shot noise; squeezing in dB is positive below shot noise.

The public names are imported from their modules on first access, so
``import sqzbudget`` loads nothing else, and the scalar loss budget never
loads numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "cavity": "CavityParams apply_cavity finesse reflection",
    "chain": "BudgetReport CavityStage FrequencyGrid LossElement Scenario build_budget "
             "efficiency_sweep homodyne_readout noise_db propagate",
    "interferometer": "NoiseSpectrum signal_gain snr_spectrum",
    "quadcore": "SpectralCovariance UnphysicalError apply_loss db_to_variance variance_to_db",
    "scenario_io": "ScenarioParseError format_scenario load_scenario parse_scenario",
    "source": "SourceParams escape_efficiency generated_spectrum pump_parameter",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
