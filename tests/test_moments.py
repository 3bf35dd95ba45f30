"""Pair-correlation system: generator identities, evolution, domination."""

import numpy as np
import pytest

from contact_mf.errors import InvariantViolation, NumericalError, UsageError
from contact_mf.moments import (
    CorrelationGenerator,
    build_stationary,
    evolve_correlations,
    second_moment_bound_check,
    stationary_residual,
    verify_stationary,
)
from contact_mf.walk import _absorbing_solve, hitting_harmonic


def test_generator_row_sums_on_constant_field():
    lam = 2.0
    gen = CorrelationGenerator(lam, 3, radius=8)
    out = gen.apply(np.ones(gen.n))
    # interior rows away from the boundary balance exactly
    interior = (gen._sup >= 1) & (gen._sup <= gen.radius - 2)
    assert np.max(np.abs(out[interior])) < 1e-12
    # origin row gains (1-lam) + 2 lam
    assert out[gen.o] == pytest.approx(1.0 + lam)
    # rows touching the absorbing shell leak and go negative
    edge = gen._sup == gen.radius - 1
    assert np.all(out[edge] < 0)


def test_generator_rejects_mismatched_vector():
    gen = CorrelationGenerator(2.0, 3, radius=6)
    with pytest.raises(UsageError):
        gen.apply(np.ones(gen.n + 1))
    with pytest.raises(UsageError):
        CorrelationGenerator(0.0, 3, radius=6)
    with pytest.raises(UsageError):
        CorrelationGenerator(2.0, 3, radius=1)


def test_evolution_at_time_zero_is_identity():
    gen = CorrelationGenerator(2.0, 3, radius=8)
    state = evolve_correlations(gen, 0.0)
    assert state.time == 0.0
    assert np.all(state.values == 1.0)
    assert state.value((3, 2, 1)) == 1.0
    assert state.value((40, 0, 0)) == 0.0   # beyond truncation reads zero


def test_evolution_stays_nonnegative():
    gen = CorrelationGenerator(2.0, 3, radius=8)
    for t in (0.5, 1.0, 2.0):
        state = evolve_correlations(gen, t)
        assert state.values.min() >= -1e-12


def test_evolution_insensitive_to_truncation_radius():
    # Boundary clipping decays superexponentially in the radius: at t=1 the
    # R=8 -> R=12 shift is ~5e-6 while R=12 -> R=16 is ~1e-10.
    lam, d, t = 2.0, 3, 1.0
    states = {r: evolve_correlations(CorrelationGenerator(lam, d, r), t)
              for r in (8, 12, 16)}
    for u in ((1, 0, 0), (0, 0, 0)):
        gap_small = abs(states[8].value(u) - states[12].value(u))
        gap_large = abs(states[12].value(u) - states[16].value(u))
        assert gap_small < 1e-4
        assert gap_large < 1e-9
        assert gap_large < gap_small


def test_correlations_grow_at_origin_for_supercritical_rate():
    gen = CorrelationGenerator(2.0, 4, radius=8)
    f1 = evolve_correlations(gen, 0.5)
    f2 = evolve_correlations(gen, 1.5)
    assert f2.value((0, 0, 0, 0)) > f1.value((0, 0, 0, 0)) > 1.0


@pytest.mark.parametrize("lam", [2.0, 3.0])
@pytest.mark.parametrize("d", [3, 4])
def test_stationary_vector_annihilates_generator(lam, d):
    gen = CorrelationGenerator(lam, d, radius=8)
    report = verify_stationary(gen)
    assert report.sup_interior < 1e-8
    assert report.origin_row < 1e-12


def test_stationary_offset_sign_depends_on_dimension():
    # d=3 hitting is too large for a positive offset at lam=2; d=4 is not
    sv3 = build_stationary(CorrelationGenerator(2.0, 3, radius=8))
    sv4 = build_stationary(CorrelationGenerator(2.0, 4, radius=8))
    assert sv3.offset < 0 < sv4.offset
    assert not sv3.positive and sv4.positive


def test_residual_detector_fires_on_perturbation():
    gen = CorrelationGenerator(2.0, 4, radius=8)
    sv = build_stationary(gen)
    sv.values[gen.index[(2, 1, 0, 0)]] += 1e-3
    report = stationary_residual(gen, sv)
    assert report.sup_interior > 1e-5
    with pytest.raises(InvariantViolation):
        verify_stationary(gen, sv)


def test_evolved_correlations_stay_under_stationary_envelope():
    # F_t <= (h + b)/b on the interior whenever the offset b is positive
    gen = CorrelationGenerator(2.0, 4, radius=8)
    sv = build_stationary(gen)
    assert sv.positive
    envelope = (sv.values + 0.0) / sv.offset   # sv.values hold h + b
    interior = gen._sup <= gen.radius // 2
    for t in (0.5, 1.0, 2.0, 4.0):
        state = evolve_correlations(gen, t)
        gap = envelope[interior] - state.values[interior]
        assert gap.min() > -1e-9


def test_pair_bound_rows_at_time_zero():
    rows = second_moment_bound_check(2.0, 4, radius=8, t=0.0, max_set_size=3)
    for row in rows:
        assert row.lhs == pytest.approx(row.set_size**2)
        assert row.cs_bound == pytest.approx(1.0)
        assert row.lhs <= row.rhs + 1e-6


def test_pair_bound_inequality_holds_d4():
    rows = second_moment_bound_check(2.0, 4, radius=8, t=1.0, max_set_size=3)
    assert [r.set_size for r in rows] == [1, 2, 3]
    for row in rows:
        assert row.lhs <= row.rhs + 1e-6
        assert row.cs_bound >= row.closed_bound - 1e-6


def test_pair_bound_refuses_vacuous_offset_domain():
    # lam=2, d=3: the truncated hitting value pushes the offset negative,
    # so no finite envelope exists and the check must refuse loudly
    with pytest.raises(NumericalError):
        second_moment_bound_check(2.0, 3, radius=8, t=1.0, max_set_size=2)


def test_dirichlet_solve_runs_once_per_radius_across_callers():
    _absorbing_solve.cache_clear()
    _, est = hitting_harmonic(6, 10)
    assert _absorbing_solve.cache_info().misses == 2    # radius 10 and 10 // 2
    gen = CorrelationGenerator(2.0, 6, 10)
    h = gen.matched_hitting()
    info = _absorbing_solve.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    assert h[gen.e1] == est.h
    # keyword and default spellings of the same solve share its entry
    _absorbing_solve(d=6, radius=10, max_sweeps=100_000)
    _absorbing_solve(6, 10, tol=1e-10)
    assert _absorbing_solve.cache_info().misses == 2
