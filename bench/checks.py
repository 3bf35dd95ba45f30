"""Exact values and output checks for the contact-mf benchmark.

Nothing here imports contact_mf: every reference value is recomputed from
its formula, so a check cannot pass by agreeing with the code under test.
Each check takes one output row (a dict of floats, as parsed from the
command's CSV) plus the inputs the benchmark chose, and returns a bool.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy.integrate import quad
from scipy.special import i0e

# Gaussian-approximation gates sit at 4 standard errors: a false alarm
# costs ~6e-5 per row, so no seed of a ten-seed sweep should trip one.
Z_GATE = 4.0
# the survival sandwich keeps the program's own 3-sigma slack
SANDWICH_SIGMAS = 3.0
CLOSED_FORM_TOL = 1e-10


@lru_cache(maxsize=None)
def hitting_exact(d: int) -> float:
    """P(simple random walk on Z^d from e1 ever visits the origin), d >= 3.

    The continuous-time walk spends G = d * int_0^inf (e^-s I_0(s))^d ds
    expected time at the origin (Montroll 1956), which is the discrete
    walk's expected number of visits.  The return probability is 1 - 1/G,
    and by symmetry it equals the hitting probability from a neighbour.
    """
    if d < 3:
        raise ValueError(f"the walk is recurrent for d = {d} < 3")

    def integrand(s: float) -> float:
        return i0e(s) ** d

    head, _ = quad(integrand, 0.0, 50.0, limit=200, epsabs=1e-14, epsrel=1e-13)
    tail, _ = quad(integrand, 50.0, math.inf, limit=200, epsabs=1e-14, epsrel=1e-13)
    return 1.0 - 1.0 / (d * (head + tail))


def reach(lam: float, d: int, level: int) -> float:
    """P(a walk up w.p. mu/(1+mu), mu = lam(1 - level/2d), climbs from 1 to level)."""
    if level == 1:
        return 1.0
    mu = lam * (1.0 - level / (2.0 * d))
    if mu <= 0.0:
        return 0.0
    if mu == 1.0:
        return 1.0 / level
    return (1.0 - 1.0 / mu) / (1.0 - mu ** (-level))


def survival_floor(lam: float, d: int, h: float, level: int) -> float:
    """reach(K) * K^2(lam-1-2 lam H) / ((K^2-K)(lam-1)(1-H) + 2K lam (1-H))."""
    n = float(level)
    numerator = n * n * (lam - 1.0 - 2.0 * lam * h)
    if numerator <= 0.0:
        return 0.0
    denominator = (n * n - n) * (lam - 1.0) * (1.0 - h) + 2.0 * n * lam * (1.0 - h)
    return reach(lam, d, level) * numerator / denominator


def pair_closed_bound(lam: float, h: float, size: int) -> float:
    """n^2 b / ((n^2-n)(H+b) + n(1+b)), b = (lam-1-2 lam H)/(lam+1)."""
    b = (lam - 1.0 - 2.0 * lam * h) / (lam + 1.0)
    n = float(size)
    return n * n * b / ((n * n - n) * (h + b) + n * (1.0 + b))


def truncation_tolerance(d: int, radius: int) -> float:
    """Allowed H_exact - bracket_low for an absorbing box of this radius.

    The deficit of the absorbing solve falls like radius^(2-d), the decay
    of the walk's Green's function; at d=6 it is 2.8e-6 at radius 10 and
    1.9e-7 at radius 20, both under a third of 0.1 * radius^(2-d).
    """
    return 0.1 * float(radius) ** (2 - d)


# ---------------------------------------------------------------------------
# survival: one row per (lambda, d) cell
# ---------------------------------------------------------------------------

def hitting_mc_ok(row: dict, n_walks: int) -> bool:
    """|H_estimate - H_exact(d)| <= 4 binomial standard errors."""
    h = row["H_estimate"]
    sigma = math.sqrt(h * (1.0 - h) / n_walks)
    return abs(h - hitting_exact(int(row["d"]))) <= Z_GATE * sigma


def survival_upper_ok(row: dict) -> bool:
    """p_hat <= (lam-1)/lam + 3 se: the biased walk dominates at every d."""
    lam = row["lambda"]
    return row["p_hat"] <= (lam - 1.0) / lam + SANDWICH_SIGMAS * row["std_err"]


def survival_floor_ok(row: dict) -> bool:
    """p_hat >= floor(K_used) - 3 se, with the floor taken at the exact H."""
    d = int(row["d"])
    floor = survival_floor(row["lambda"], d, hitting_exact(d), int(row["K_used"]))
    return row["p_hat"] >= floor - SANDWICH_SIGMAS * row["std_err"]


# ---------------------------------------------------------------------------
# moments: one harmonic-solve row, one pair-bound row per seed-set size
# ---------------------------------------------------------------------------

def bracket_checks(row: dict, radius: int) -> list[bool]:
    """The absorbing solve is a rigorous lower bound within the truncation
    tolerance, and the padded bracket covers the exact value."""
    exact = hitting_exact(int(row["d"]))
    low, high = row["bracket_low"], row["bracket_high"]
    return [
        low <= exact,
        exact - low <= truncation_tolerance(int(row["d"]), radius),
        high >= exact,
    ]


def pair_row_checks(row: dict, lam: float, h_low: float) -> list[bool]:
    """lhs <= rhs, cs_bound >= closed_bound <= (lam-1)/lam, and
    closed_bound equal to its formula at H = the run's bracket_low."""
    own = pair_closed_bound(lam, h_low, int(row["set_size"]))
    return [
        row["lhs"] <= row["rhs"],
        row["cs_bound"] >= row["closed_bound"],
        row["closed_bound"] <= (lam - 1.0) / lam,
        abs(row["closed_bound"] - own) <= CLOSED_FORM_TOL,
    ]


def jensen_ok(size_one_row: dict) -> bool:
    """F_t(O) = E[value(O)^2] >= E[value(O)]^2 = 1."""
    return size_one_row["lhs"] >= 1.0


# ---------------------------------------------------------------------------
# torus: duality row, coupling line, first-moment rows
# ---------------------------------------------------------------------------

def duality_z(row: dict) -> float:
    """Pooled two-proportion z-score, recomputed from the row's proportions."""
    n = row["n_trials"]
    p1, p2 = row["p_single_survives"], row["p_full_covers_origin"]
    pooled = (p1 + p2) / 2.0
    if pooled in (0.0, 1.0):
        return 0.0
    return (p1 - p2) / math.sqrt(pooled * (1.0 - pooled) * 2.0 / n)


def duality_ok(row: dict) -> bool:
    return abs(duality_z(row)) < Z_GATE


def coupled_events_ok(events: int, trials: int, volume: int, lam: float, horizon: float) -> bool:
    """The total event rate is volume*(1+lam) whatever the configuration, so
    the event count over all trials is Poisson with mean mu."""
    mu = trials * volume * (1.0 + lam) * horizon
    return abs(events - mu) <= Z_GATE * math.sqrt(mu)


def first_moment_ok(row: dict) -> bool:
    """E[value(O)] = 1 exactly at every time."""
    return abs(row["mean_value_origin"] - 1.0) <= Z_GATE * row["std_err"]
