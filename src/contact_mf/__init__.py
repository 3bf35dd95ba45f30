"""Contact-process survival toolkit: event-driven simulation on Z^d and
tori, mean-field ODE baselines, random-walk hitting probabilities, and
pair-correlation bounds, all tied together by deterministic seeded streams.
"""

from .analytics import (
    combined_survival_bound,
    dominating_walk_survival,
    mean_field_closed_form,
    reach_probability,
    second_moment_survival_bound,
    solve_mean_field_ode,
    stationary_offset,
    survival_sandwich,
    threshold_error_bound,
)
from .bcpp import BcppField, first_moment_check, pair_moment_mc, run_coupled
from .contact import (
    ContactParams,
    SurvivalEstimate,
    TrialOutcome,
    duality_check,
    estimate_survival,
    run_trial,
)
from .errors import InvariantViolation, NumericalError, UsageError
from .lattice import Torus, origin, unit_vector
from .moments import (
    CorrelationGenerator,
    build_stationary,
    evolve_correlations,
    second_moment_bound_check,
    verify_stationary,
)
from .rng import np_substream, stream_key, substream
from .walk import hitting_exact, hitting_harmonic, hitting_mc, kesten_check

__version__ = "0.1.0"

__all__ = [
    "BcppField",
    "ContactParams",
    "CorrelationGenerator",
    "InvariantViolation",
    "NumericalError",
    "SurvivalEstimate",
    "Torus",
    "TrialOutcome",
    "UsageError",
    "build_stationary",
    "combined_survival_bound",
    "dominating_walk_survival",
    "duality_check",
    "estimate_survival",
    "evolve_correlations",
    "first_moment_check",
    "hitting_exact",
    "hitting_harmonic",
    "hitting_mc",
    "kesten_check",
    "mean_field_closed_form",
    "np_substream",
    "origin",
    "pair_moment_mc",
    "reach_probability",
    "run_coupled",
    "run_trial",
    "second_moment_bound_check",
    "second_moment_survival_bound",
    "solve_mean_field_ode",
    "stationary_offset",
    "stream_key",
    "substream",
    "survival_sandwich",
    "threshold_error_bound",
    "unit_vector",
    "verify_stationary",
]
