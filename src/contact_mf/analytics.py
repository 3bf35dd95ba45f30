"""Closed-form analytics: the walk's exact hitting probability H(d), the
mean-field ODE, gambler's-ruin dominations, the second-moment survival
bounds and the stationary offset they share.

Everything here is exact arithmetic on user-supplied parameters, in
scalar `math`: only the ODE functions load numpy.  The bounds take the
hitting probability `hitting` as an input: from `hitting_exact`, the
Watson–Montroll integral, or 0 for the infinite-dimension limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvariantViolation, UsageError

if TYPE_CHECKING:
    import numpy as np

RATIO_DEGENERACY_WINDOW = 1e-12  # |ruin ratio - 1| below this -> use the 1/level limit
LEVEL_TIE_RTOL = 1e-12  # levels whose bounds agree to this are a tie, won by the lowest
_I0E_ASYMPTOTIC_FROM = 25.0   # power series below, asymptotic series from here up
ODE_MAX_STEPS = 10**7  # 1,000 times the CLI's default; each step is kept in two arrays


def _i0e(x: float) -> float:
    """exp(-x) I_0(x) for x >= 0, to a few ulps.  Below _I0E_ASYMPTOTIC_FROM,
    the power series sum_k (x^2/4)^k / (k!)^2 times exp(-x); from there up,
    the asymptotic series sum_k ((2k-1)!!)^2 / (k! (8x)^k) / sqrt(2 pi x),
    stopped where a term stops shrinking or falls below 1e-17."""
    if x < _I0E_ASYMPTOTIC_FROM:
        q = 0.25 * x * x
        term = total = 1.0
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= q / (k * k)
            total += term
        return total * math.exp(-x)
    z = 1.0 / (8.0 * x)
    term = total = 1.0
    k = 1
    while True:
        nxt = term * (2 * k - 1) ** 2 * z / k
        if nxt >= term or nxt < 1e-17:
            return total / math.sqrt(2.0 * math.pi * x)
        term, total, k = nxt, total + nxt, k + 1


@functools.lru_cache(maxsize=None)
def hitting_exact(d: int) -> float:
    """P(walk on Z^d from e1 ever visits the origin), from the integral.

    H = 1 - 1/G with G = ∫₀^∞ i0e(u/d)^d du (Montroll 1956; Finch,
    *Mathematical Constants* §5.9), the expected number of visits to the
    origin, started there (the continuous-time walk's occupation time,
    which the discrete walk shares).  By symmetry the return probability
    equals the hitting probability from a neighbour.  The walk is
    recurrent for d <= 2, where H = 1.0.  The power i0e^d multiplies the
    few-ulp error of i0e by d, and H = (G - 1)/G, with G - 1 about
    1/(2d), multiplies G's by 2d: against Watson's closed form at d = 3
    and a 40-digit quadrature above, H is off by 3e-16 at d = 3, 1e-15
    at d = 8, 1.3e-14 at d = 16, 6e-14 at d = 64 and 1.3e-11 at d = 1024.
    """
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if d <= 2:
        return 1.0
    # trapezoid rule in t for u = exp(pi/2 sinh t): step 1/64 on t in
    # [-4.5, 4.5], where the end nodes sit at u = 2e-31 and 5e30
    terms = []
    for j in range(-288, 289):
        t = j / 64.0
        u = math.exp(0.5 * math.pi * math.sinh(t))
        terms.append(u * (0.5 * math.pi / 64.0) * math.cosh(t) * _i0e(u / d) ** d)
    return 1.0 - 1.0 / math.fsum(terms)


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
    if not 1 <= t_end / dt <= ODE_MAX_STEPS:
        raise UsageError(f"t_end/dt must be 1 to {ODE_MAX_STEPS:,} steps, got {t_end}/{dt}")
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
        import logging

        logging.getLogger(__name__).info(
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
    clipped at 0.  With `level` None the level is the lowest k in
    1..2d-1 whose combined bound is within a relative LEVEL_TIE_RTOL of
    the largest, and lower is that level's own bound (still rigorous), so
    an ulp of H cannot tip an exact tie, as at (lam, d) = (2, 6).  Levels
    k >= 2d climb at rate lam*(1 - k/2d) <= 0 and have floor 0.
    Subcritical rates (and the recurrent d where H = 1) have no positive
    floor: lower is 0, at the given level or at 1.  lower <= upper is
    checked defensively.
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
        floor = max(values) * (1.0 - LEVEL_TIE_RTOL)
        level = next(k for k, value in enumerate(values, 1) if value >= floor)
        lower = values[level - 1]
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
