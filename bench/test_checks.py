"""Tests of the benchmark's oracle and output checks.

    python3 -m pytest bench/test_checks.py

Each check must accept a row built from exact values and reject the same
row doctored past its gate.
"""

import math

import pytest

import checks

H3_POLYA = 0.3405373295509    # Polya's return probability in d = 3


def test_hitting_exact_matches_known_values():
    assert checks.hitting_exact(3) == pytest.approx(H3_POLYA, abs=1e-9)
    assert 2 * 8 * checks.hitting_exact(8) == pytest.approx(1.16660, abs=5e-6)
    assert 2 * 10 * checks.hitting_exact(10) == pytest.approx(1.12395, abs=5e-6)
    values = [checks.hitting_exact(d) for d in range(3, 12)]
    assert values == sorted(values, reverse=True)


def test_hitting_exact_refuses_recurrent_dimensions():
    with pytest.raises(ValueError):
        checks.hitting_exact(2)


def _survival_row(d: int, n_walks: int, shift_sigmas: float = 0.0) -> dict:
    h = checks.hitting_exact(d)
    h += shift_sigmas * math.sqrt(h * (1.0 - h) / n_walks)
    return {"lambda": 2.0, "d": d, "p_hat": 0.45, "std_err": 0.02,
            "H_estimate": h, "K_used": 1}


def test_hitting_mc_check_rejects_five_sigma():
    assert checks.hitting_mc_ok(_survival_row(6, 30_000), 30_000)
    assert checks.hitting_mc_ok(_survival_row(6, 30_000, 3.5), 30_000)
    assert not checks.hitting_mc_ok(_survival_row(6, 30_000, 5.0), 30_000)
    assert not checks.hitting_mc_ok(_survival_row(6, 30_000, -5.0), 30_000)


def test_survival_sandwich_checks():
    row = _survival_row(6, 30_000)
    assert checks.survival_upper_ok(row) and checks.survival_floor_ok(row)
    above = dict(row, p_hat=0.5 + 3.5 * row["std_err"])
    assert not checks.survival_upper_ok(above)
    floor = checks.survival_floor(2.0, 6, checks.hitting_exact(6), 1)
    below = dict(row, p_hat=floor - 3.5 * row["std_err"])
    assert not checks.survival_floor_ok(below)


def test_survival_floor_matches_its_formula():
    # level 1: reach = 1, floor = (lam-1-2 lam H) / (2 lam (1-H))
    h = checks.hitting_exact(6)
    assert checks.survival_floor(2.0, 6, h, 1) == pytest.approx((1 - 4 * h) / (4 * (1 - h)))
    # level 2 at d = 4: mu = 2 * (1 - 2/8) = 1.5
    mu = 1.5
    reach = (1 - 1 / mu) / (1 - mu ** -2)
    h = checks.hitting_exact(4)
    expected = reach * 4 * (1 - 4 * h) / (2 * (1 - h) + 8 * (1 - h))
    assert checks.survival_floor(2.0, 4, h, 2) == pytest.approx(expected)
    assert checks.survival_floor(2.0, 3, checks.hitting_exact(3), 1) == 0.0


def test_bracket_checks_reject_a_low_end_above_exact():
    exact = checks.hitting_exact(6)
    good = {"d": 6, "bracket_low": exact - 1.4e-6, "bracket_high": exact + 4e-5}
    assert checks.bracket_checks(good, 12) == [True, True, True]
    above = dict(good, bracket_low=exact + 1e-9)
    assert checks.bracket_checks(above, 12)[0] is False
    too_far = dict(good, bracket_low=exact - 1e-4)
    assert checks.bracket_checks(too_far, 12)[1] is False
    short = dict(good, bracket_high=exact - 1e-9)
    assert checks.bracket_checks(short, 12)[2] is False


def _pair_row(lam: float, h: float, size: int) -> dict:
    b = (lam - 1 - 2 * lam * h) / (lam + 1)
    numerator = (size * size - size) * (h + b) + size * (1 + b)
    rhs = numerator / b
    lhs = 0.9 * rhs
    return {"set_size": size, "lhs": lhs, "rhs": rhs, "cs_bound": size * size / lhs,
            "closed_bound": size * size * b / numerator}


def test_pair_row_checks_reject_lhs_above_rhs():
    lam, h = 2.0, 0.1047
    for size in (1, 2, 3):
        row = _pair_row(lam, h, size)
        assert checks.pair_row_checks(row, lam, h) == [True] * 4
        doctored = dict(row, lhs=row["rhs"] * (1 + 1e-9))
        assert checks.pair_row_checks(doctored, lam, h)[0] is False
    row = _pair_row(lam, h, 2)
    assert checks.pair_row_checks(dict(row, cs_bound=row["closed_bound"] - 1e-9), lam, h)[1] is False
    assert checks.pair_row_checks(dict(row, closed_bound=0.5 + 1e-9), lam, h)[2] is False
    assert checks.pair_row_checks(row, lam, h + 1e-6)[3] is False


def test_jensen_check():
    assert checks.jensen_ok({"lhs": 1.0})
    assert not checks.jensen_ok({"lhs": 1.0 - 1e-12})


def test_duality_z_is_recomputed_from_the_proportions():
    row = {"n_trials": 2000.0, "p_single_survives": 0.34, "p_full_covers_origin": 0.339}
    assert checks.duality_z(row) == pytest.approx(0.066779582524607847, rel=1e-12)
    assert checks.duality_ok(row)
    # a gap of 4.2 pooled standard errors
    gap = 4.2 * math.sqrt(0.34 * 0.66 * 2 / 2000)
    assert not checks.duality_ok(dict(row, p_full_covers_origin=0.34 - gap / 2,
                                      p_single_survives=0.34 + gap / 2))


def test_coupled_event_count_against_poisson_mean():
    mu = 100 * 64 * 2.5 * 5.0
    assert checks.coupled_events_ok(int(mu), 100, 64, 1.5, 5.0)
    assert checks.coupled_events_ok(int(mu + 3.9 * math.sqrt(mu)), 100, 64, 1.5, 5.0)
    assert not checks.coupled_events_ok(int(mu + 4.1 * math.sqrt(mu)), 100, 64, 1.5, 5.0)


def test_first_moment_check_rejects_five_standard_errors():
    assert checks.first_moment_ok({"mean_value_origin": 1.02, "std_err": 0.02})
    assert not checks.first_moment_ok({"mean_value_origin": 1.0 + 5 * 0.02, "std_err": 0.02})
    assert not checks.first_moment_ok({"mean_value_origin": 1.0 - 5 * 0.02, "std_err": 0.02})
