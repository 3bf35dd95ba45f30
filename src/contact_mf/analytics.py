"""Closed-form analytics: the mean-field ODE, gambler's-ruin dominations,
the second-moment survival bounds and the stationary offset they share.

Everything here is exact arithmetic on user-supplied parameters.  The
hitting probability `hitting` is always an input (take it from
`walk.hitting_exact`, or pass 0 for the infinite-dimension limit); this
module never computes it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvariantViolation, UsageError

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

RATIO_DEGENERACY_WINDOW = 1e-12  # |ruin ratio - 1| below this -> use the 1/level limit


@dataclass(frozen=True)
class OdeSolution:
    times: np.ndarray
    values: np.ndarray
    fixed_point: float


def _mean_field_rhs(lam: float, f: float) -> float:
    return -f + lam * f * (1.0 - f)


def solve_mean_field_ode(lam: float, t_end: float, dt: float) -> OdeSolution:
    """Integrate f' = -f + lam*f*(1-f), f_0 = 1, by classical RK4.

    The density of infected sites in the mean-field (all-neighbors)
    approximation; its fixed point max(0, (lam-1)/lam) is the survival
    probability the d->infinity limit produces.
    """
    import numpy as np

    if not (lam > 0):
        raise UsageError(f"lambda must be positive, got {lam}")
    if not (0 < t_end < math.inf and dt > 0):
        raise UsageError(f"t_end must be positive and finite and dt positive, got {t_end}, {dt}")
    if dt > t_end:
        raise UsageError(f"dt={dt} exceeds t_end={t_end}")
    n_full = int(t_end / dt)
    remainder = t_end - n_full * dt
    times = [0.0]
    values = [1.0]
    t, f = 0.0, 1.0
    steps = [dt] * n_full + ([remainder] if remainder > 1e-15 * t_end else [])
    for h in steps:
        k1 = _mean_field_rhs(lam, f)
        k2 = _mean_field_rhs(lam, f + 0.5 * h * k1)
        k3 = _mean_field_rhs(lam, f + 0.5 * h * k2)
        k4 = _mean_field_rhs(lam, f + h * k3)
        f += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times.append(t)
        values.append(f)
    fixed_point = max(0.0, (lam - 1.0) / lam)
    return OdeSolution(np.array(times), np.array(values), fixed_point)


def mean_field_closed_form(lam: float, times) -> np.ndarray:
    """Exact Bernoulli-substitution solution of the mean-field ODE.

    For lam != 1: f_t = (lam-1)e^((lam-1)t) / (lam*e^((lam-1)t) - 1);
    for lam == 1: f_t = 1/(1+t).  Derivation: u = 1/f linearizes the ODE.
    """
    import numpy as np

    t = np.asarray(times, dtype=float)
    if lam == 1.0:
        return 1.0 / (1.0 + t)
    e = np.exp((lam - 1.0) * t)
    return (lam - 1.0) * e / (lam * e - 1.0)


def dominating_walk_survival(lam: float) -> float:
    """Survival probability of the size-dominating asymmetric walk
    (up-probability lam/(1+lam)): max(0, (lam-1)/lam).  Upper bound for
    the contact-process survival probability at every d."""
    if not (lam > 0):
        raise UsageError(f"lambda must be positive, got {lam}")
    return max(0.0, (lam - 1.0) / lam)


def reach_probability(lam: float, d: int | None, level: int) -> float:
    """P(the lower-dominating walk reaches `level` before 0 | start 1).

    The walk moves up with probability mu/(1+mu) where mu = lam*(1 - level/(2d))
    (each infected site has at least 2d - level healthy neighbors while the
    set is smaller than `level`).  Ruin formula (1 - 1/mu) / (1 - mu^-level),
    with the continuous extensions: ratio-1 degeneracy -> 1/level, and
    nonpositive mu (level >= 2d at small d) -> 0 for level >= 2, since a walk
    that cannot move up never climbs.  d=None means the infinite-d limit.
    """
    if not (lam > 0):
        raise UsageError(f"lambda must be positive, got {lam}")
    if level < 1:
        raise UsageError(f"level must be >= 1, got {level}")
    if d is not None and d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if level == 1:
        return 1.0
    mu = lam if d is None else lam * (1.0 - level / (2.0 * d))
    if mu <= 0.0:
        log.info(
            "reach_probability degenerate: up-rate lam*(1-level/2d) = %.6g <= 0 "
            "(lam=%g, d=%s, level=%d); returning 0", mu, lam, d, level,
        )
        return 0.0
    ratio = 1.0 / mu
    if abs(ratio - 1.0) < RATIO_DEGENERACY_WINDOW:
        return 1.0 / level
    if ratio > 1.0:
        # the same ruin formula in powers of mu < 1, which underflow to 0
        # where ratio**level would overflow
        value = (ratio - 1.0) * mu**level / (1.0 - mu**level)
    else:
        value = (1.0 - ratio) / (1.0 - ratio**level)
    return min(1.0, max(0.0, value))


class SetSurvivalBound(NamedTuple):
    """Second-moment lower bound together with its vacuity flag."""

    value: float
    vacuous: bool


def second_moment_survival_bound(
    lam: float, hitting: float, set_size: int
) -> SetSurvivalBound:
    """Cauchy-Schwarz lower bound for survival from a set of `set_size` sites:

        n^2 (lam - 1 - 2*lam*H) / ((n^2 - n)(lam-1)(1-H) + 2n*lam*(1-H))

    with n = set_size and H = `hitting`, the walk hitting probability.
    The numerator can be <= 0 at small d (H too large); then the bound is
    vacuous and reported as 0 with the flag set.
    """
    if not (lam > 1):
        raise UsageError(f"bound requires lambda > 1, got {lam}")
    if not 0.0 <= hitting < 1.0:
        raise UsageError(f"hitting probability must be in [0,1), got {hitting}")
    if set_size < 1:
        raise UsageError(f"set_size must be >= 1, got {set_size}")
    n = float(set_size)
    numerator = n * n * (lam - 1.0 - 2.0 * lam * hitting)
    denominator = (n * n - n) * (lam - 1.0) * (1.0 - hitting) + 2.0 * n * lam * (
        1.0 - hitting
    )
    if numerator <= 0.0:
        return SetSurvivalBound(0.0, True)
    return SetSurvivalBound(min(1.0, numerator / denominator), False)


def stationary_offset(lam: float, hitting: float) -> float:
    """Constant offset b = (lam - 1 - 2*lam*H) / (lam + 1).

    Added to the hitting function it yields the stationary vector of the
    pair-correlation generator; the pair-correlation machinery is only
    informative when this is positive, i.e. when H < (lam-1)/(2*lam), the
    same sign condition as the numerator of second_moment_survival_bound.
    """
    if not (lam > 0):
        raise UsageError(f"infection rate must be positive, got {lam}")
    return (lam - 1.0 - 2.0 * lam * hitting) / (lam + 1.0)


def combined_survival_bound(
    lam: float, d: int | None, hitting: float, level: int
) -> float:
    """Lower bound for survival from a single site: reach `level` first
    (gambler's ruin), then survive from a set of that size (second-moment
    bound).  Degenerate reach (nonpositive up-rate) makes this 0."""
    reach = reach_probability(lam, d, level)
    bound = second_moment_survival_bound(lam, hitting, level)
    return reach * bound.value


class Sandwich(NamedTuple):
    """Survival from one site: combined lower bound at `level`, the
    (lam-1)/lam upper bound, and the older coarse (lam-1)/(2*lam)."""

    lower: float
    upper: float
    halved: float
    level: int


def survival_sandwich(
    lam: float, d: int | None, hitting: float, level: int | None = None
) -> Sandwich:
    """Both sides of the survival probability from the origin.

    The upper bound is the dominating-walk survival, valid at every d;
    `halved` is the coarse bound the sharp analysis supersedes, not
    clipped at 0.  With `level` None the level is the first maximizer of
    the combined bound over k = 1..2d-1: levels k >= 2d climb at rate
    lam*(1 - k/2d) <= 0 and have floor 0.  Subcritical rates (and the
    recurrent d where H = 1) have no positive floor: lower is 0, at the
    given level or at 1.  lower <= upper is checked defensively.
    """
    upper = dominating_walk_survival(lam)
    halved = (lam - 1.0) / (2.0 * lam)
    if level is None and d is None:
        raise UsageError("choosing the level needs a finite dimension d")
    if level is not None and level < 1:
        raise UsageError(f"level must be >= 1, got {level}")
    if lam <= 1.0 or hitting >= 1.0:
        return Sandwich(0.0, upper, halved, 1 if level is None else level)
    if level is None:
        # k = 1 always runs, so reach_probability refuses a d < 1
        values = [combined_survival_bound(lam, d, hitting, k) for k in range(1, max(2, 2 * d))]
        lower = max(values)
        level = values.index(lower) + 1
    else:
        lower = combined_survival_bound(lam, d, hitting, level)
    if lower > upper + 1e-12:
        raise InvariantViolation(
            f"lower bound {lower} exceeds upper bound {upper} "
            f"(lam={lam}, d={d}, hitting={hitting}, level={level})"
        )
    return Sandwich(lower, upper, halved, level)


def threshold_error_bound(lam: float, threshold: int) -> float:
    """Misclassification floor for the size-threshold survival surrogate:
    from size n the dominating walk dies with probability (1/lam)^n, and
    the contact process, being smaller, dies at least as often, so a
    trial that reached `threshold` is a false survivor with probability
    at least (1/lam)^threshold (lam > 1; 1 otherwise, where every
    process dies).  It is not an upper bound on that rate."""
    if lam <= 1.0:
        return 1.0
    try:
        return math.exp(-threshold * math.log(lam))
    except OverflowError:
        return 0.0
