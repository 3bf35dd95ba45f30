"""Contact-process survival toolkit: event-driven simulation on Z^d and
tori, mean-field ODE baselines, random-walk hitting probabilities, and
pair-correlation bounds, all tied together by deterministic seeded streams.

Importing the package loads no submodule: each exported name is looked up
in its module on first access (PEP 562), so a command that never touches
an array never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "analytics": (
        "combined_survival_bound", "dominating_walk_survival", "hitting_exact",
        "mean_field_closed_form", "reach_probability", "second_moment_survival_bound",
        "solve_mean_field_ode", "stationary_offset", "survival_sandwich",
        "threshold_error_bound",
    ),
    "bcpp": ("BcppField", "first_moment_check", "pair_moment_mc", "run_coupled"),
    "contact": (
        "ContactParams", "SurvivalEstimate", "TrialOutcome", "duality_check",
        "estimate_survival", "run_trial",
    ),
    "errors": ("InvariantViolation", "NumericalError", "UsageError"),
    "lattice": ("Torus", "origin", "unit_vector"),
    "moments": (
        "CorrelationGenerator", "build_stationary", "evolve_correlations",
        "second_moment_bound_check", "verify_stationary",
    ),
    "rng": ("np_substream", "stream_key", "substream"),
    "walk": ("hitting_harmonic", "hitting_mc", "kesten_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value   # later lookups skip this hook
    return value
