"""Hitting probabilities: the exact integral (analytics.hitting_exact), the
Monte Carlo walker and the Dirichlet solver.

The d=3 references below use the return probability 1 - 1/G of the simple
random walk, with Watson's closed form of G (the walk from a neighbor hits
the origin with exactly that probability).  MC runs with a finite step cap undercount late hits,
so MC assertions carry an explicit cap allowance.

Two tests pin stated target windows that the true constants sit outside
of (2d*h exceeds 1.1 at d=10 and 1.15 at d=8 — the 1/(2d) asymptotic
has a slowly decaying 1/d correction); they fail by design and are
expected failures of record, not regressions.
"""

import math

import numpy as np
import pytest

from contact_mf import walk
from contact_mf.analytics import hitting_exact
from contact_mf.errors import NumericalError, UsageError
from contact_mf.lattice import class_neighbor_table, origin
from contact_mf.rng import np_substream
from contact_mf.walk import (
    absorbing_solve,
    hitting_harmonic,
    hitting_mc,
    kesten_check,
)

# Watson (1939): the 3-d walk's expected number of visits to the origin
WATSON_G3 = (
    math.sqrt(6.0) / (32.0 * math.pi**3)
    * math.gamma(1 / 24) * math.gamma(5 / 24) * math.gamma(7 / 24) * math.gamma(11 / 24)
)
D3_RETURN = 1.0 - 1.0 / WATSON_G3


def test_exact_d3_matches_watson():
    assert WATSON_G3 == pytest.approx(1.516386059151978, abs=1e-15)
    assert abs(hitting_exact(3) - D3_RETURN) <= 1e-14


@pytest.mark.parametrize("d", [64, 256, 1024, 4096])
def test_exact_high_d_follows_the_1_over_2d_expansion(d):
    # 2dH = 1 + 1/d + O(1/d^2): the scaled correction (2dH - 1)*d -> 1
    # (measured 1.0285, 1.0069, 1.0017, 1.0004)
    assert abs((2 * d * hitting_exact(d) - 1) * d - 1) <= 2 / d


def test_exact_is_one_for_recurrent_dimensions():
    assert hitting_exact(1) == hitting_exact(2) == 1.0
    with pytest.raises(UsageError):
        hitting_exact(0)


def test_exact_agrees_with_the_kesten_table_walks():
    # the d=6 walks of test_kesten_table_monotone_in_dimension (cached):
    # a walk from e1 hits after step 2000 with probability about 1e-7,
    # far below the estimate's 9e-4 standard error
    est = hitting_mc(6, n_walks=120_000, max_steps=2_000, seed=2)
    assert abs(est.h - hitting_exact(6)) <= 4 * est.std_err


def test_mc_d1_is_nearly_recurrent():
    est = hitting_mc(1, n_walks=10_000, max_steps=100_000, seed=0)
    assert est.h > 0.99
    assert est.method == "monte-carlo"
    assert est.n_walks == 10_000


def test_mc_d3_quick_window():
    # short cap: generous allowance for the sqrt-of-cap tail undercount
    est = hitting_mc(3, n_walks=50_000, max_steps=2_000, seed=3)
    assert est.std_err is not None
    low = D3_RETURN - 3 * est.std_err - 0.016
    high = D3_RETURN + 3 * est.std_err
    assert low <= est.h <= high


def test_mc_h_increases_with_step_cap():
    short = hitting_mc(3, n_walks=30_000, max_steps=100, seed=5)
    long = hitting_mc(3, n_walks=30_000, max_steps=2_000, seed=5)
    assert short.h < long.h


def test_mc_is_deterministic_in_seed():
    a = hitting_mc(4, n_walks=20_000, max_steps=500, seed=9)
    b = hitting_mc(4, n_walks=20_000, max_steps=500, seed=9)
    c = hitting_mc(4, n_walks=20_000, max_steps=500, seed=10)
    assert a.h == b.h
    assert a.h != c.h


# exact h of hitting_mc at seed 0, so that any change to the walk stream
# fails here and not only in criterion 4's clause at z = -2.11.  At d = 3,
# 3 walks of at most 20,000 steps are the fewest walks whose one chunk has
# a hit and all three kinds of round: 61 all-short, 106 mixed, 13 all-long.
PINNED_H = {(1, 1_000, 10_000): 0.992, (3, 3, 20_000): 1 / 3, (8, 20_000, 2_000): 0.075}


@pytest.mark.parametrize("d, n_walks, max_steps", sorted(PINNED_H))
def test_mc_stream_is_pinned(d, n_walks, max_steps):
    est = hitting_mc(d, n_walks=n_walks, max_steps=max_steps, seed=0)
    assert est.h == PINNED_H[d, n_walks, max_steps]


def test_mc_chunk_leaves_its_generator_at_the_pinned_state():
    # a single hit out of 3 pins little; the generator's end state pins every draw
    rng = np_substream(0, "hitting-mc", 3, 0)
    assert walk._mc_chunk(3, 3, 20_000, rng) == 1
    assert rng.bit_generator.state["state"]["state"] == 1838553214814914318153660974269078333


def test_mc_rejects_bad_arguments():
    with pytest.raises(UsageError):
        hitting_mc(0, n_walks=100, max_steps=10)
    with pytest.raises(UsageError):
        hitting_mc(3, n_walks=0, max_steps=10)


def test_harmonic_d1_is_gamblers_ruin():
    est = hitting_harmonic(1, radius=10)
    values = dict(zip(*absorbing_solve(1, 10)))
    for k in range(1, 10):
        assert abs(values[(k,)] - (10 - k) / 10) < 1e-8
    assert abs(est.h - 0.9) < 1e-8
    # the walk is recurrent, so the padded upper end must clamp at 1
    assert est.bracket == (est.h, 1.0)


def test_harmonic_d3_bracket_contains_reference():
    est = hitting_harmonic(3, radius=20)
    values = dict(zip(*absorbing_solve(3, 20)))
    lo, hi = est.bracket
    assert lo <= D3_RETURN <= hi
    assert lo == est.h == values[(1, 0, 0)]
    assert hi < 1.0  # transient walk: the padding stays informative


def test_harmonic_lower_bound_grows_with_radius():
    hs = [hitting_harmonic(3, radius=r).h for r in (6, 10, 14)]
    assert hs[0] < hs[1] < hs[2] < D3_RETURN


def test_absorbing_solve_is_positional_and_raises_on_stall(monkeypatch):
    with pytest.raises(TypeError):
        absorbing_solve(d=3, radius=6)      # one spelling, so one cache entry
    monkeypatch.setattr(walk, "SOLVE_MAX_ITERATIONS", 2)
    with pytest.raises(NumericalError, match="stalled"):
        absorbing_solve.__wrapped__(3, 6)   # uncached, so the cap applies


def _dense_dirichlet(d, radius):
    """The class Dirichlet system written out as a dense matrix and solved
    directly: h(O) = 1, every other row h = neighbor average."""
    classes, index, nbr = class_neighbor_table(d, radius - 1)
    n, o = len(classes), index[origin(d)]
    system = np.eye(n)
    for i in range(n):
        for j in nbr[i]:
            if i != o and j >= 0:
                system[i, j] -= 1.0 / (2 * d)
    return np.linalg.solve(system, np.eye(n)[o])


@pytest.mark.parametrize("d, radius", [(3, 6), (4, 5)])
def test_absorbing_solve_sits_just_below_the_dense_solution(d, radius):
    classes, h = absorbing_solve(d, radius)
    exact = _dense_dirichlet(d, radius)
    assert classes == class_neighbor_table(d, radius - 1)[0]
    assert h[classes.index(origin(d))] == 1.0
    assert np.all(h <= exact)                 # still a lower bound
    assert np.max(exact - h) <= 1e-10


def test_kesten_table_monotone_in_dimension():
    rows, problems = kesten_check([3, 4, 5, 6], n_walks=120_000, max_steps=2_000, seed=2)
    assert problems == []
    hs = [h for _, h, _, _ in rows]
    assert hs == sorted(hs, reverse=True)
    for d, h, scaled, se in rows:
        assert scaled == pytest.approx(2 * d * h)
        assert 0 < se < 0.01


def test_kesten_d3_scaled_value():
    est = hitting_mc(3, n_walks=1_000_000, max_steps=100_000, seed=0)
    assert 2.00 < 6 * est.h < 2.08


def test_kesten_window_d10_as_stated():
    # stated window (0.9, 1.1); the true value 20 * 0.05620 = 1.124 sits
    # outside it, so this documents a known red rather than a code bug
    est = hitting_mc(10, n_walks=1_000_000, max_steps=10_000, seed=0)
    scaled = 20 * est.h
    assert 0.9 < scaled < 1.1


def test_kesten_window_d8_as_stated():
    # same situation: 16 * 0.07291 = 1.167 > 1.15
    est = hitting_mc(8, n_walks=600_000, max_steps=2_000, seed=2)
    scaled = 16 * est.h
    assert 0.85 < scaled < 1.15


def test_kesten_check_flags_the_d8_window():
    rows, problems = kesten_check([8], n_walks=200_000, max_steps=2_000, seed=2)
    assert [d for d, _, _, _ in rows] == [8]
    assert len(problems) == 1 and "at d=8 outside (0.85, 1.15)" in problems[0]


def test_bracket_upper_never_exceeds_one():
    for d, r in [(2, 8), (3, 8), (4, 6)]:
        est = hitting_harmonic(d, radius=r)
        lo, hi = est.bracket
        assert 0 < lo <= hi <= 1.0
