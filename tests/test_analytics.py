"""Closed-form layer: the exact H(d), ODE integration and the survival
bound arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0e

from contact_mf import analytics
from contact_mf.analytics import (
    combined_survival_bound,
    dominating_walk_survival,
    hitting_exact,
    mean_field_closed_form,
    reach_probability,
    second_moment_survival_bound,
    solve_mean_field_ode,
    stationary_offset,
    survival_sandwich,
    threshold_error_bound,
)
from contact_mf.errors import InvariantViolation, UsageError


# ------------------------------------------------------------- exact H

# H(d) to 22 digits, from a 40-digit mpmath quadrature of the Bessel
# integral; an independent 40-digit trapezoid rule agrees to 30 digits at
# d = 16, 64 and 1024, and the d = 3 value matches Watson's closed form
H_REFERENCE = {
    3: "0.3405373295509991428263",
    4: "0.1932016732249839373419",
    5: "0.1351786098206552910473",
    6: "0.1047154956288220108261",
    7: "0.08584493411337900918811",
    8: "0.07291264995938399846975",
    9: "0.06344774965272473309556",
    10: "0.05619753597426778812097",
    11: "0.0504551598213313067535",
    12: "0.04578912090062103788312",
    13: "0.04191989707897463321727",
    14: "0.03865787709067398563124",
    15: "0.0358696231253565142294",
    16: "0.0334583644657885297917",
    64: "0.007938045177859624911158",
    256: "0.001960807064107701352925",
    1024: "0.0004887589040609634401956",
}


def _numpy_i0e(x: np.ndarray) -> np.ndarray:
    """exp(-x) I_0(x) as the package once computed it: np.i0 below 700,
    five asymptotic terms above."""
    small = np.minimum(x, 700.0)
    out = np.i0(small) * np.exp(-small)
    big = x >= 700.0
    if big.any():
        z = 1.0 / (8.0 * x[big])
        term = total = 1.0
        for k in range(1, 6):
            term = term * (2 * k - 1) ** 2 * z / k
            total = total + term
        out[big] = total / np.sqrt(2.0 * np.pi * x[big])
    return out


def _numpy_hitting(d: int) -> float:
    """H(d) by the same trapezoid rule in numpy, summed by a BLAS dot: the
    reference the scalar closed form replaced."""
    t = np.arange(-288, 289) / 64.0
    u = np.exp(0.5 * np.pi * np.sinh(t))
    w = u * (0.5 * np.pi / 64.0) * np.cosh(t)
    return 1.0 - 1.0 / float(w @ _numpy_i0e(u / d) ** d)


def _error(value: float, d: int) -> Fraction:
    """|value / H(d) - 1|, exact against the reference digits."""
    exact = Fraction(H_REFERENCE[d])
    return abs(Fraction(value) - exact) / exact


def test_i0e_matches_scipy():
    # both sides of the switch to the asymptotic series at x = 25
    xs = np.geomspace(1e-30, 1e30, 2001).tolist()
    xs += [math.nextafter(25.0, 0.0), 25.0, math.nextafter(25.0, math.inf)]
    worst = max(abs(analytics._i0e(x) - float(i0e(x))) / float(i0e(x)) for x in xs)
    assert worst <= 2e-15


@pytest.mark.parametrize("d", range(3, 11))
def test_hitting_exact_matches_the_numpy_rule(d):
    # measured at most 6.1e-15; from d = 11 on, np.i0's own bias puts the
    # numpy rule 2e-14 to 4.3e-14 off the quadrature, so the gate below
    # takes over
    assert abs(hitting_exact(d) / _numpy_hitting(d) - 1.0) <= 2e-14


@pytest.mark.parametrize("d", range(3, 17))
def test_hitting_exact_matches_a_40_digit_quadrature(d):
    # measured at most 1.3e-14, at d = 16
    assert _error(hitting_exact(d), d) <= 2e-14


@pytest.mark.parametrize("d", [3, 8, 16, 64, 256, 1024])
def test_hitting_exact_is_as_close_as_the_numpy_rule(d):
    assert _error(hitting_exact(d), d) <= _error(_numpy_hitting(d), d)


# ---------------------------------------------------------------- ODE

def test_ode_lam1_is_hyperbolic_decay():
    sol = solve_mean_field_ode(1.0, 5.0, 1e-3)
    assert abs(sol.values[-1] - 1.0 / 6.0) < 1e-10
    assert np.allclose(sol.values, 1.0 / (1.0 + sol.times), atol=1e-10)


def test_ode_supercritical_settles_at_fixed_point():
    sol = solve_mean_field_ode(2.0, 30.0, 1e-3)
    assert sol.fixed_point == 0.5
    assert abs(sol.values[-1] - 0.5) < 1e-12


def test_ode_subcritical_decays_monotonically_to_zero():
    sol = solve_mean_field_ode(0.5, 25.0, 1e-3)
    assert sol.fixed_point == 0.0
    assert np.all(np.diff(sol.values) < 0)
    assert sol.values[-1] < 1e-5


def test_ode_matches_closed_form():
    sol = solve_mean_field_ode(4.0, 20.0, 1e-3)
    exact = mean_field_closed_form(4.0, sol.times)
    assert np.max(np.abs(sol.values - exact)) < 1e-8


def test_ode_rejects_bad_steps():
    with pytest.raises(UsageError):
        solve_mean_field_ode(2.0, 1.0, 2.0)
    with pytest.raises(UsageError):
        solve_mean_field_ode(-1.0, 1.0, 0.1)
    for args in ((math.nan, 1.0, 0.1), (2.0, math.nan, 0.1), (2.0, 1.0, math.nan),
                 (2.0, math.inf, 0.1)):
        with pytest.raises(UsageError):
            solve_mean_field_ode(*args)


# ------------------------------------------------------ dominating walk

@pytest.mark.parametrize("lam,expected", [(2.0, 0.5), (1.0, 0.0), (4.0, 0.75)])
def test_upper_bound_values(lam, expected):
    assert dominating_walk_survival(lam) == expected


def test_upper_bound_clamps_subcritical():
    assert dominating_walk_survival(0.5) == 0.0


# ---------------------------------------------------------- reach level

def test_reach_infinite_d_example():
    assert abs(reach_probability(2.0, None, 2) - 2.0 / 3.0) < 1e-15


def test_reach_level_one_is_certain():
    assert reach_probability(2.0, 3, 1) == 1.0


def test_reach_ratio_degeneracy_continuous_limit():
    # lam*(1 - K/2d) == 1 makes the ruin ratio 1; the limit is 1/K
    assert abs(reach_probability(2.0, 5, 5) - 1.0 / 5.0) < 1e-12


def test_reach_degenerate_up_rate_is_zero():
    # level >= 2d at lam*(1-K/2d) <= 0: the walk cannot climb, so the
    # probability extends continuously to 0 rather than erroring
    assert reach_probability(2.0, 4, 20) == 0.0
    assert reach_probability(2.0, 6, 20) == 0.0


def test_reach_monotone_in_d_and_level():
    vals_d = [reach_probability(2.0, d, 4) for d in range(3, 12)]
    assert all(a <= b + 1e-15 for a, b in zip(vals_d, vals_d[1:]))
    vals_k = [reach_probability(2.0, 10, k) for k in range(1, 9)]
    assert all(a >= b - 1e-15 for a, b in zip(vals_k, vals_k[1:]))


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(0.05, 20.0), d=st.none() | st.integers(1, 200),
       level=st.integers(1, 400))
def test_reach_does_not_increase_in_level(lam, d, level):
    assert reach_probability(lam, d, level + 1) <= reach_probability(lam, d, level)


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(0.05, 20.0) | st.floats(1.0 - 1e-6, 1.0 + 1e-6),
       d=st.integers(1, 200), level=st.integers(1, 400))
def test_reach_does_not_decrease_in_d(lam, d, level):
    # subcritical rates, the ratio-1 degeneracy window and the infinite-d
    # limit d=None (mu = lam, the largest up-rate) all included
    here = reach_probability(lam, d, level)
    assert here <= reach_probability(lam, d + 1, level)
    assert here <= reach_probability(lam, None, level)


def test_reach_approaches_infinite_d_formula():
    lam, k = 2.0, 6
    limit = reach_probability(lam, None, k)
    assert abs(reach_probability(lam, 10_000, k) - limit) < 1e-3


# ----------------------------------------------------- set lower bound

def test_set_bound_single_site_example():
    b = second_moment_survival_bound(2.0, 0.0, 1)
    assert b.value == 0.25 and not b.vacuous


def test_set_bound_vacuous_at_zero_numerator():
    b = second_moment_survival_bound(2.0, 0.25, 1)
    assert b.value == 0.0 and b.vacuous


def test_set_bound_large_set_limit():
    # H=0: the bound tends to (lam-1)/((lam-1)) = 1 as the set grows
    b = second_moment_survival_bound(2.0, 0.0, 10**6)
    assert abs(b.value - 1.0) < 1e-5


def test_set_bound_domain():
    with pytest.raises(UsageError):
        second_moment_survival_bound(2.0, 1.0, 3)
    with pytest.raises(UsageError):
        second_moment_survival_bound(0.9, 0.1, 3)
    with pytest.raises(UsageError):
        second_moment_survival_bound(2.0, 0.1, 0)


def test_stationary_offset_arithmetic():
    assert stationary_offset(2.0, 0.0) == pytest.approx(1.0 / 3.0)
    assert stationary_offset(2.0, 0.2) > 0 > stationary_offset(2.0, 0.3)
    # sign flip exactly at hitting = (lam-1)/(2 lam)
    assert stationary_offset(2.0, 0.25) == pytest.approx(0.0)
    with pytest.raises(UsageError):
        stationary_offset(0.0, 0.1)


# -------------------------------------------------------- combined bound

def test_combined_composes_reach_and_set_bound():
    assert combined_survival_bound(2.0, None, 0.0, 1) == 0.25


def test_combined_stays_below_upper_cap():
    v = combined_survival_bound(2.0, 100, 0.005, 20)
    assert 0.0 < v <= 0.5


def test_combined_limit_recovers_mean_field_value():
    # d unbounded first, then deep levels with vanishing H: -> (lam-1)/lam.
    # The floor approaches 1 like 1 - 3/K, so the 1e-6 window needs K ~ 3e6.
    errs = [abs(combined_survival_bound(2.0, None, 0.0, k) - 0.5)
            for k in (40, 10_000, 3_000_000)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_sandwich_orders_and_halves():
    lower, upper, halved, level = survival_sandwich(2.0, 8, 0.07, 2)
    assert 0 < lower <= upper == 0.5 and halved == 0.25 and level == 2
    lower3, upper3, halved3, _ = survival_sandwich(3.0, 8, 0.07, 2)
    assert upper3 == pytest.approx(2.0 / 3.0) and halved3 == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("lam, hitting, level", [(1.0, 0.1, None), (0.5, 0.1, 4),
                                                 (2.0, 1.0, None), (2.0, 1.0, 3)])
def test_sandwich_degenerate_cell_has_zero_floor(lam, hitting, level):
    # no positive floor below criticality or at a recurrent d (H = 1);
    # halved is not clipped: -0.5 at lam = 0.5
    bounds = survival_sandwich(lam, 6, hitting, level)
    assert bounds.lower == 0.0 and bounds.level == (1 if level is None else level)
    assert bounds.upper == dominating_walk_survival(lam)
    assert bounds.halved == (lam - 1.0) / (2.0 * lam)


def test_sandwich_refusals(monkeypatch):
    with pytest.raises(UsageError, match="lambda must be positive"):
        survival_sandwich(0.0, 4, 0.2)
    with pytest.raises(UsageError, match="finite dimension"):
        survival_sandwich(2.0, None, 0.0)
    with pytest.raises(UsageError, match="dimension must be >= 1"):
        survival_sandwich(2.0, 0, 0.1)
    # degenerate cells too, which never reach reach_probability's check
    with pytest.raises(UsageError, match="level must be >= 1, got 0"):
        survival_sandwich(0.5, 4, 0.1, 0)
    with pytest.raises(UsageError, match="level must be >= 1, got -3"):
        survival_sandwich(2.0, 2, 1.0, -3)
    assert survival_sandwich(2.0, None, 0.0, 1).lower == 0.25
    monkeypatch.setattr(analytics, "combined_survival_bound", lambda *a: 0.75)
    with pytest.raises(InvariantViolation, match="exceeds upper bound 0.5"):
        survival_sandwich(2.0, 6, 0.1)


_SUPERCRITICAL = st.floats(min_value=1.0, max_value=12.0, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(lam=_SUPERCRITICAL, d=st.integers(min_value=3, max_value=399))
def test_sandwich_lower_bound_never_falls_as_d_grows(lam, d):
    here = survival_sandwich(lam, d, hitting_exact(d))
    above = survival_sandwich(lam, d + 1, hitting_exact(d + 1))
    assert above.lower >= here.lower


@settings(max_examples=200, deadline=None)
@given(lam=_SUPERCRITICAL, d=st.integers(min_value=3, max_value=400))
def test_sandwich_orders_its_sides_at_a_level_below_2d(lam, d):
    bounds = survival_sandwich(lam, d, hitting_exact(d))
    assert 0.0 <= bounds.lower <= bounds.upper
    assert 1 <= bounds.level <= 2 * d - 1


# ------------------------------------------------------ threshold escape

def test_threshold_error_bound_decays_geometrically():
    assert threshold_error_bound(2.0, 10) == pytest.approx(2.0**-10)
    assert threshold_error_bound(2.0, 500) < 1e-100
    assert threshold_error_bound(0.8, 500) == 1.0
