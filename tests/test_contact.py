"""Event-driven contact process: single events, whole trials, estimators."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_mf import contact
from contact_mf.analytics import threshold_error_bound
from contact_mf.contact import (
    CENSORED,
    CODE_LIMIT,
    EXTINCT,
    REACHED_THRESHOLD,
    ContactParams,
    SampleSet,
    TrialOutcome,
    _decode,
    _encode,
    duality_check,
    estimate_survival,
    run_to_time,
    run_trial,
    summarize_survival,
    tally_duality,
    tally_survival,
)
from contact_mf.errors import NumericalError, UsageError
from contact_mf.lattice import Torus, origin
from contact_mf.rng import substream

O3 = origin(3)


# ------------------------------------------------------------ DiscardSet

class DiscardSet:
    """The classic list-plus-index-map set that reference_trial and
    coupled_thinning_trial mutate: O(1) add, membership and deletion, and a
    uniform pick items[randrange(len)].  Deletion is the one run_trial
    inlines on its int codes: the last item fills the gap."""

    def __init__(self, iterable=()):
        self.items = []
        self._pos = {}
        for v in iterable:
            self.add(v)

    def __len__(self):
        return len(self.items)

    def __contains__(self, v):
        return v in self._pos

    def __iter__(self):
        return iter(self.items)

    def add(self, v):
        if v not in self._pos:
            self._pos[v] = len(self.items)
            self.items.append(v)

    def discard(self, v):
        i = self._pos.pop(v, None)
        if i is None:
            return
        last = self.items.pop()
        if last != v:
            self.items[i] = last
            self._pos[last] = i


def test_sample_set_basic_ops():
    # the reference structure: add, membership and the gap-filling discard
    s = DiscardSet([(0, 0), (1, 0)])
    assert len(s) == 2 and (0, 0) in s
    s.add((0, 0))          # duplicate add is a no-op
    assert len(s) == 2
    s.discard((0, 0))
    assert (0, 0) not in s and len(s) == 1
    s.discard((9, 9))      # absent discard is a no-op
    assert set(s) == {(1, 0)}


def test_sample_set_keeps_the_first_copy_of_each_vertex():
    a, b = (0, 1), (2, 3)
    assert SampleSet([a, a, b]) == [a, b]
    assert SampleSet(v for v in (b, a, b)) == [b, a]


def test_sample_set_choose_is_uniform():
    s = DiscardSet([(i,) for i in range(8)])
    rng = random.Random(3)
    n = 8000
    counts = [0] * 8
    for _ in range(n):
        counts[s.items[rng.randrange(len(s))][0]] += 1
    bound = 3 * math.sqrt((1 / 8) * (7 / 8) / n)
    for c in counts:
        assert abs(c / n - 1 / 8) < bound


# ----------------------------------------------------------- parameters

def test_params_validation():
    with pytest.raises(UsageError):
        ContactParams(-0.5, 3)
    with pytest.raises(UsageError):
        ContactParams(2.0, 0)
    with pytest.raises(UsageError):
        ContactParams(2.0, 3, Torus(2, 6))
    ContactParams(0.0, 3)   # pure death is allowed


# ------------------------------------------------------ event rate laws

def test_single_event_outcome_matches_recovery_share():
    # one site, threshold 2: the first event either recovers the site
    # (probability 1/(1+lam), extinct) or infects a neighbour (threshold),
    # after an Exp(1+lam) wait
    lam, reps = 2.0, 6000
    params = ContactParams(lam, 3)
    extinct_times = []
    for trial in range(reps):
        out = run_trial([O3], params, 100.0, 2, substream(5, "first-event", trial))
        assert out.event_count == 1
        if out.verdict == EXTINCT:
            extinct_times.append(out.extinction_time)
        else:
            assert out.verdict == REACHED_THRESHOLD and out.max_size == 2
    p = 1 / (1 + lam)
    assert abs(len(extinct_times) / reps - p) < 3 * math.sqrt(p * (1 - p) / reps)
    # the recovery mark is independent of the clock, so the extinction
    # times are still Exp(1+lam)
    mean = sum(extinct_times) / len(extinct_times)
    expected = 1 / (1 + lam)
    assert abs(mean - expected) < 3 * expected / math.sqrt(len(extinct_times))


def test_first_infection_picks_a_uniform_neighbor():
    # threshold 2 stops a single-site trial at its first infection, so the
    # site it adds is the kernel's neighbor draw
    params = ContactParams(2.0, 3)
    counts = {}
    n = 0
    for trial in range(9000):
        state = SampleSet([O3])
        if run_trial(state, params, 100.0, 2, substream(9, "neighbor", trial)).verdict == EXTINCT:
            continue
        y = state[1]
        counts[y] = counts.get(y, 0) + 1
        n += 1
    # the 2d tuple neighbours of the origin
    steps = {O3[:a] + (c + s,) + O3[a + 1:] for a, c in enumerate(O3) for s in (1, -1)}
    assert set(counts) == steps
    p = 1 / 6
    bound = 3 * math.sqrt(p * (1 - p) / n)
    for c in counts.values():
        assert abs(c / n - p) < bound


def test_pure_death_extinction_time_is_harmonic_number():
    # lam = 0 from n sites: n successive Exp(k) recoveries, k = n..1, so
    # the extinction time has mean H_n and variance sum 1/k^2
    n, reps = 20, 4000
    params = ContactParams(0.0, 2)
    base = [(i, 0) for i in range(n)]
    times = []
    for trial in range(reps):
        out = run_trial(base, params, 1000.0, n + 1, substream(6, "pure-death", trial))
        assert out.verdict == EXTINCT and out.event_count == n
        times.append(out.extinction_time)
    h_n = sum(1 / k for k in range(1, n + 1))
    sd = math.sqrt(sum(1 / k**2 for k in range(1, n + 1)))
    assert abs(sum(times) / reps - h_n) < 3 * sd / math.sqrt(reps)


# --------------------------------------------------------------- trials

def test_trial_from_empty_set_is_extinct_at_zero():
    out = run_trial([], ContactParams(2.0, 3), horizon=10.0, threshold=5,
                    rng=random.Random(0))
    assert out.verdict == EXTINCT
    assert out.extinction_time == 0.0
    assert out.event_count == 0


def test_trial_pure_death_extinction_law():
    params = ContactParams(0.0, 3)
    times = []
    for trial in range(10_000):
        out = run_trial([O3], params, 100.0, 10, substream(0, "death", trial))
        assert out.verdict == EXTINCT and out.event_count == 1
        times.append(out.extinction_time)
    mean = sum(times) / len(times)
    assert abs(mean - 1.0) < 3 / math.sqrt(len(times))


def test_trial_verdict_bookkeeping():
    params = ContactParams(3.0, 2)
    seen = set()
    for trial in range(300):
        out = run_trial([origin(2)], params, 4.0, 30, substream(1, "mix", trial))
        seen.add(out.verdict)
        if out.verdict == REACHED_THRESHOLD:
            assert out.max_size >= 30 and out.extinction_time is None
        elif out.verdict == EXTINCT:
            assert out.extinction_time is not None
        else:
            assert out.verdict == CENSORED
        assert out.max_size >= 1 and out.event_count >= 0
    assert REACHED_THRESHOLD in seen and EXTINCT in seen


def test_subcritical_never_reaches_threshold():
    est = estimate_survival(ContactParams(0.5, 3), 10_000, 200.0, 500, seed=4)
    assert est.n_reached == 0 and est.p_hat == 0.0


def test_mildly_subcritical_p_hat_zero():
    est = estimate_survival(ContactParams(0.8, 4), 2_000, 200.0, 500, seed=4)
    assert est.p_hat == 0.0 and est.std_err == 0.0


def test_supercritical_cell_sits_in_sandwich():
    from contact_mf.analytics import combined_survival_bound, hitting_exact

    est = estimate_survival(ContactParams(2.0, 6), 2_000, 200.0, 500, seed=4)
    h = hitting_exact(6)
    lower = max(combined_survival_bound(2.0, 6, h, k) for k in range(1, 30))
    assert lower - 3 * est.std_err <= est.p_hat <= 0.5 + 3 * est.std_err
    assert est.p_hat * est.n_trials == est.n_reached
    assert est.std_err == pytest.approx(
        math.sqrt(est.p_hat * (1 - est.p_hat) / est.n_trials))


def test_estimate_is_deterministic_in_seed():
    a = estimate_survival(ContactParams(2.0, 4), 200, 50.0, 100, seed=8)
    b = estimate_survival(ContactParams(2.0, 4), 200, 50.0, 100, seed=8)
    c = estimate_survival(ContactParams(2.0, 4), 200, 50.0, 100, seed=9)
    assert a == b
    assert a.n_reached != c.n_reached or a.n_censored != c.n_censored


@pytest.mark.parametrize("cuts", [[], [7, 19, 20, 33], list(range(1, 40))],
                         ids=["one-block", "uneven-blocks", "one-trial-blocks"])
def test_block_tallies_sum_to_the_whole_estimate(cuts):
    params = ContactParams(2.0, 4)
    est = estimate_survival(params, 40, 30.0, 60, seed=5)
    edges = [0, *cuts, 40]
    blocks = [tally_survival(params, range(a, b), 30.0, 60, 5)
              for a, b in zip(edges, edges[1:])]
    reached = sum(r for r, _ in blocks)
    censored = sum(c for _, c in blocks)
    assert (reached, censored) == (est.n_reached, est.n_censored)
    assert summarize_survival(params, 40, reached, censored, 30.0, 60) == est


def test_summarize_survival_rejects_no_trials():
    with pytest.raises(UsageError):
        summarize_survival(ContactParams(2.0, 4), 0, 0, 0, 30.0, 60)


def test_threshold_escape_bound_is_a_floor_not_a_ceiling():
    # continue every trial that reached the threshold: it still dies out
    # more often than (1/lam)^threshold, the dominating walk's extinction
    # probability from that size (0.053 +- 0.006 against 0.031 here), because
    # the contact process is smaller than the walk
    lam, threshold = 2.0, 5
    params = ContactParams(lam, 4)
    reached = died = 0
    for trial in range(3000):
        rng = substream(9, "escape", trial)
        state = SampleSet([origin(4)])
        if run_trial(state, params, 200.0, threshold, rng).verdict != REACHED_THRESHOLD:
            continue
        reached += 1
        if run_trial(state, params, 200.0, 400, rng).verdict == EXTINCT:
            died += 1
    rate = died / reached
    se = math.sqrt(rate * (1 - rate) / reached)
    assert rate - 3 * se > threshold_error_bound(lam, threshold)


def test_growth_sweep_approaches_mean_field_value():
    # p_hat climbs with dimension toward (lam-1)/lam = 1/2; adjacent cells
    # may swap within noise, so the check allows paired sampling error
    results = []
    for j, d in enumerate((1, 2, 3, 4, 5, 6, 7, 8)):
        est = estimate_survival(ContactParams(2.0, d), 2_000, 200.0, 500,
                                seed=(17 * j + 5))
        results.append(est)
    ps = [e.p_hat for e in results]
    assert ps[0] < 0.05                    # effectively subcritical
    assert ps[-1] > 0.45                   # close to the 1/2 ceiling
    for a, b in zip(results, results[1:]):
        slack = 3 * math.hypot(a.std_err, b.std_err)
        assert b.p_hat >= a.p_hat - slack
    assert all(p <= 0.5 + 3 * e.std_err for p, e in zip(ps, results))


# -------------------------------------------------------------- duality

def test_duality_time_zero_is_exact():
    params = ContactParams(1.5, 2, Torus(2, 6))
    res = duality_check(params, 0.0, 50, seed=0)
    assert res.p_single_survives == 1.0
    assert res.p_full_covers_origin == 1.0
    assert res.z_score == 0.0


def test_duality_pure_death_matches_poisson_clock():
    # no infection: both sides are P(Exp(1) > 1) = e^{-1}
    params = ContactParams(0.0, 2, Torus(2, 6))
    res = duality_check(params, 1.0, 10_000, seed=2)
    se = math.sqrt(math.e**-1 * (1 - math.e**-1) / res.n_trials)
    assert abs(res.p_single_survives - math.e**-1) < 3 * se
    assert abs(res.p_full_covers_origin - math.e**-1) < 3 * se
    assert abs(res.z_score) < 3


def test_duality_needs_torus_and_nonnegative_time():
    with pytest.raises(UsageError):
        duality_check(ContactParams(1.5, 2), 1.0, 10, seed=0)
    with pytest.raises(UsageError):
        duality_check(ContactParams(1.5, 2, Torus(2, 6)), -1.0, 10, seed=0)
    with pytest.raises(UsageError):
        duality_check(ContactParams(1.5, 2, Torus(2, 6)), math.nan, 10, seed=0)
    with pytest.raises(UsageError, match="finite"):
        duality_check(ContactParams(3.0, 2, Torus(2, 6)), math.inf, 1, seed=0)


def test_duality_tally_refuses_a_missing_torus_and_an_infinite_time():
    # refused before any trial, however few: no AttributeError, no endless run
    with pytest.raises(UsageError, match="Torus"):
        tally_duality(ContactParams(1.5, 2), 1.0, range(1), 0)
    with pytest.raises(UsageError, match="finite"):
        tally_duality(ContactParams(1.5, 2, Torus(2, 6)), math.inf, range(1), 0)


# ------------------------------------------------------------- coupling

def coupled_thinning_trial(
    lam_lo: float,
    lam_hi: float,
    d: int,
    horizon: float,
    rng,
    geometry: Torus | None = None,
) -> bool:
    """Run processes at two infection rates on one event stream.

    The master stream drives the lam_hi process; the lam_lo process
    accepts an infection attempt only when its own source is infected and
    an extra coin with success lam_lo/lam_hi comes up — which thins the
    attempt rate to exactly lam_lo/(2d) per (source, target) pair while
    recoveries are shared.  Started from the same set, the lam_lo
    configuration then stays inside the lam_hi one; returns True when
    that containment held at every event, a certificate that survival is
    monotone in the infection rate.
    """
    if not 0 < lam_lo <= lam_hi:
        raise UsageError("need 0 < lam_lo <= lam_hi")
    params_hi = ContactParams(lam_hi, d, geometry)
    o = origin(d)
    lo = DiscardSet((o,))
    hi = DiscardSet((o,))
    rate_per_site = 1.0 + lam_hi
    accept = lam_lo / lam_hi
    t = 0.0
    geo = params_hi.geometry
    while len(hi):
        dt = rng.expovariate(len(hi) * rate_per_site)
        if t + dt > horizon:
            break
        t += dt
        if rng.random() * rate_per_site < 1.0:
            x = hi.items[rng.randrange(len(hi))]
            hi.discard(x)
            lo.discard(x)
        else:
            x = hi.items[rng.randrange(len(hi))]
            k = rng.randrange(2 * d)
            axis = k >> 1
            delta = 1 - 2 * (k & 1)
            if geo is None:
                y = x[:axis] + (x[axis] + delta,) + x[axis + 1:]
            else:
                y = x[:axis] + ((x[axis] + delta) % geo.side,) + x[axis + 1:]
            hi.add(y)
            if x in lo and rng.random() < accept:
                lo.add(y)
        for v in lo.items:
            if v not in hi:
                return False
    return True


def test_thinning_containment_holds():
    for trial in range(100):
        assert coupled_thinning_trial(1.2, 2.5, 2, 4.0, substream(3, "thin", trial))


def test_thinning_equal_rates_is_identity_coupling():
    for trial in range(25):
        assert coupled_thinning_trial(2.0, 2.0, 3, 3.0, substream(4, "same", trial))


def test_thinning_rejects_bad_rate_order():
    with pytest.raises(UsageError):
        coupled_thinning_trial(2.5, 1.2, 2, 1.0, random.Random(0))


# ------------------------------------------------------------ run_to_time

def test_run_to_time_zero_duration_is_identity():
    s = SampleSet([O3])
    run_to_time(s, ContactParams(2.0, 3), 0.0, random.Random(0))
    assert set(s) == {O3}
    with pytest.raises(UsageError):
        run_to_time(s, ContactParams(2.0, 3), -1.0, random.Random(0))


# ------------------------------------------------- the int-coded kernel

def reference_trial(initial, params, horizon, threshold, rng) -> TrialOutcome:
    """run_trial as it was on tuple vertices: the same draws in the same
    order, each infection building a neighbor tuple and every set operation
    going through DiscardSet's list and index map.  The oracle for the
    int-coded kernel."""
    if not (horizon > 0) or threshold < 1:
        raise UsageError("horizon must be positive and threshold >= 1")
    state = initial if isinstance(initial, DiscardSet) else DiscardSet(initial)
    rate_per_site = 1.0 + params.lam
    d2 = 2 * params.d
    d2_bits = d2.bit_length()
    geo = params.geometry
    side = geo.side if geo is not None else 0
    t = 0.0
    events = 0
    max_size = len(state)
    uniform = rng.random
    bits = rng.getrandbits
    items = state.items
    while True:
        n = len(items)
        if n == 0:
            return TrialOutcome(EXTINCT, t, max_size, events)
        if n >= threshold:
            return TrialOutcome(REACHED_THRESHOLD, None, max_size, events)
        dt = -math.log(1.0 - uniform()) / (n * rate_per_site)
        if t + dt > horizon:
            return TrialOutcome(CENSORED, None, max_size, events)
        t += dt
        events += 1
        recovery = uniform() * rate_per_site < 1.0
        i = bits(n.bit_length())
        while i >= n:
            i = bits(n.bit_length())
        if recovery:
            state.discard(items[i])
        else:
            x = items[i]
            k = bits(d2_bits)
            while k >= d2:
                k = bits(d2_bits)
            axis = k >> 1
            delta = 1 - 2 * (k & 1)
            if geo is None:
                y = x[:axis] + (x[axis] + delta,) + x[axis + 1:]
            else:
                y = x[:axis] + ((x[axis] + delta) % side,) + x[axis + 1:]
            state.add(y)
            if len(items) > max_size:
                max_size = len(items)


@st.composite
def _trial_cases(draw):
    """(params, start, horizon, threshold, seed).  Z^d starts mix small
    coordinates of both signs with far ones, well inside the addition
    budget; torus starts are wrapped, as the coded kernel returns them."""
    d = draw(st.integers(1, 10))
    side = draw(st.sampled_from([None, 4, 6])) if d <= 3 else None
    if side is None:
        coord = st.one_of(st.integers(-6, 6), st.integers(-(2**29), 2**29))
    else:
        coord = st.integers(0, side - 1)
    start = draw(st.lists(st.tuples(*[coord] * d), max_size=8))
    params = ContactParams(draw(st.floats(0.0, 4.0)), d, side and Torus(d, side))
    horizon = draw(st.floats(0.01, 2.0))
    threshold = draw(st.one_of(st.integers(1, 60), st.just(math.inf)))
    return params, start, horizon, threshold, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=_trial_cases())
def test_coded_kernel_matches_the_tuple_reference(case):
    params, start, horizon, threshold, seed = case
    expected = DiscardSet(start)
    want = reference_trial(expected, params, horizon, threshold, random.Random(seed))
    state = SampleSet(start)
    assert run_trial(state, params, horizon, threshold, random.Random(seed)) == want
    assert state == expected.items
    # a plain start runs the same trial and is only read
    before = list(start)
    assert run_trial(start, params, horizon, threshold, random.Random(seed)) == want
    assert start == before


@pytest.mark.parametrize("d", range(1, 11))
def test_vertex_code_round_trips_negative_coordinates(d):
    rng = random.Random(d)
    edge = CODE_LIMIT - 1
    vertices = [(-edge,) * d, (edge,) * d, (-1,) * d, origin(d)]
    vertices += [tuple(rng.randint(-edge, edge) for _ in range(d)) for _ in range(200)]
    for v in vertices:
        assert _decode(_encode(v), d) == v
    # and through run_trial's entry and exit, with no event before the horizon
    state = SampleSet(vertices)
    out = run_trial(state, ContactParams(0.0, d), 1e-300, math.inf, random.Random(0))
    assert out.event_count == 0 and state == vertices


def test_start_at_the_code_limit_is_refused():
    params = ContactParams(2.0, 3)
    for far in [(CODE_LIMIT, 0, 0), (0, -CODE_LIMIT, 0), (0, 0, 2**40)]:
        with pytest.raises(UsageError, match="must be below"):
            run_trial([O3, far], params, 1.0, 10, random.Random(0))
    with pytest.raises(UsageError):
        run_trial([(1, 2)], params, 1.0, 10, random.Random(0))   # wrong dimension
    # one step inside the limit leaves no addition to spare
    start = [(CODE_LIMIT - 1, 0, 0)] + [(0, 0, 3 * j) for j in range(20)]
    with pytest.raises(NumericalError, match="could reach"):
        run_trial(start, ContactParams(4.0, 3), 50.0, math.inf, random.Random(0))


class _CountingSet(DiscardSet):
    """A DiscardSet that counts the vertices added after it was built."""

    def __init__(self, iterable=()):
        self.additions = 0
        super().__init__(iterable)
        self.additions = 0

    def add(self, v):
        self.additions += v not in self
        super().add(v)


def test_addition_budget_raises_exactly_when_spent(monkeypatch):
    # capped at 8, a start 3 out leaves 8 - 1 - 3 = 4 additions
    monkeypatch.setattr(contact, "CODE_LIMIT", 8)
    params = ContactParams(3.0, 2)
    start = [(3, 0), (-2, 1)]
    with pytest.raises(UsageError):
        run_trial([(0, -8)], params, 1.0, 10, random.Random(0))
    raised = []
    for seed in range(60):
        ref = _CountingSet(start)
        reference_trial(ref, params, 1.0, math.inf, random.Random(seed))
        try:
            run_trial(start, params, 1.0, math.inf, random.Random(seed))
            raised.append(False)
        except NumericalError:
            raised.append(True)
        assert raised[-1] == (ref.additions > 4)
    assert True in raised and False in raised
    # a torus bounds its coordinates itself, so the budget does not apply
    torus = ContactParams(3.0, 2, Torus(2, 6))
    assert run_trial([(0, 0)], torus, 5.0, math.inf, random.Random(0)).event_count > 100
