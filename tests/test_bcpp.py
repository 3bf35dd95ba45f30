"""Additive field on tori: event arithmetic, decay, coupling, moments."""

import math
import random

import numpy as np
import pytest

from contact_mf import bcpp
from contact_mf.bcpp import BcppField, first_moment_check, pair_moment_mc, run_coupled
from contact_mf.errors import InvariantViolation, UsageError
from contact_mf.lattice import Torus, flat_neighbors, origin
from contact_mf.rng import substream

T26 = Torus(2, 6)


def test_field_rejects_bad_construction():
    with pytest.raises(UsageError):
        BcppField(None, 2.0)
    with pytest.raises(UsageError):
        BcppField(T26, 0.0)


def test_initial_state_is_all_ones():
    f = BcppField(T26, 2.0)
    assert f.value_at(0) == 1.0
    assert np.all(f.values_array() == 1.0)
    assert f.support == set(range(T26.volume))


class _ScriptedRng:
    """Answers BcppField.run_until's draws for one event at time 0: no wait,
    the given site, event kind and neighbour slot, then a wait past t=0."""

    def __init__(self, site: int, zero: bool, slot: int = 0):
        self._ints = iter((site, slot))
        self._uniforms = iter((0.0, 0.0 if zero else 0.999, 0.5))

    def getrandbits(self, k):
        return next(self._ints)

    def random(self):
        return next(self._uniforms)


def _one_event(field, rng):
    """Run field to its current time on rng; the (site, source) events applied."""
    applied = []
    field.run_until(field.time, rng, lambda x, y: applied.append((x, y)))
    return applied


def test_single_absorb_event_adds_values():
    f = BcppField(T26, 2.0)
    [(x, y)] = _one_event(f, _ScriptedRng(0, zero=False))   # at t=0, both values exactly 1
    assert (x, y) == (0, flat_neighbors(T26)[0])
    assert f.value_at(x) == 2.0
    assert f.value_at(y) == 1.0


def test_zero_event_empties_site_and_support():
    f = BcppField(T26, 2.0)
    assert _one_event(f, _ScriptedRng(5, zero=True)) == [(5, None)]
    assert f.value_at(5) == 0.0
    assert 5 not in f.support
    _one_event(f, _ScriptedRng(5, zero=True))   # idempotent
    assert f.value_at(5) == 0.0


def test_lazy_decay_matches_exponential_flow():
    # before any event every value follows d/dt v = (1-lam) v
    f = BcppField(T26, 2.0)
    f.time = 0.7
    assert np.allclose(f.values_array(), math.exp(-0.7))
    slow = BcppField(T26, 0.5)  # subcritical rate: values grow
    slow.time = 0.4
    assert np.allclose(slow.values_array(), math.exp(0.5 * 0.4))


def test_support_tracks_positive_values_through_events():
    f = BcppField(T26, 1.5)
    events = []

    def check(x, y):
        events.append(x)
        positive = {i for i in range(T26.volume) if f.value_at(i) > 0}
        assert positive == f.support

    f.run_until(5.0, random.Random(0), check)
    assert len(events) >= 400


def test_run_until_stops_exactly_at_horizon():
    f = BcppField(T26, 1.5)
    f.run_until(2.5, random.Random(1))
    assert f.time == 2.5
    with pytest.raises(UsageError):
        f.run_until(2.0, random.Random(1))   # going backwards is a bug


def test_coupled_support_identity_small_batch():
    events = 0
    for trial in range(20):
        events += run_coupled(1.5, T26, 5.0, substream(0, "coupled", trial))
    assert events > 1000    # the stream actually did something


class _DroppingField(BcppField):
    """A field that loses one site from its support at its 10th event."""

    def run_until(self, t_end, rng, on_event=None):
        events = 0

        def drop_at_ten(x, y):
            nonlocal events
            events += 1
            if events == 10:
                self.support.discard(min(self.support))
            on_event(x, y)

        super().run_until(t_end, rng, drop_at_ten)


def test_coupled_replay_detects_support_mismatch(monkeypatch):
    monkeypatch.setattr(bcpp, "BcppField", _DroppingField)
    with pytest.raises(InvariantViolation, match="support mismatch after event 10 "):
        run_coupled(1.5, T26, 5.0, substream(0, "coupled", 0))


def test_coupled_rejects_nonpositive_horizon():
    with pytest.raises(UsageError):
        run_coupled(1.5, T26, 0.0, random.Random(0))
    # the field's event rate never drops, so an infinite run never ends
    with pytest.raises(UsageError, match="positive and finite"):
        run_coupled(1.5, T26, math.inf, random.Random(0))


def test_first_moment_time_zero_is_exact():
    rows = first_moment_check(2.0, T26, [0.0, 0.3], 500, seed=1)
    t0, mean0, se0 = rows[0]
    assert t0 == 0.0 and mean0 == 1.0 and se0 == 0.0


def test_first_moment_calibration_d2():
    rows = first_moment_check(2.0, T26, [2.0], 100_000, seed=6)
    _, mean, se = rows[0]
    assert abs(mean - 1.0) < 3 * se
    assert se < 0.02


def test_first_moment_calibration_d1_small_torus():
    rows = first_moment_check(0.5, Torus(1, 4), [1.0], 100_000, seed=7)
    _, mean, se = rows[0]
    assert abs(mean - 1.0) < 3 * se


def test_first_moment_input_validation():
    with pytest.raises(UsageError):
        first_moment_check(2.0, T26, [1.0], 1, seed=0)
    with pytest.raises(UsageError):
        first_moment_check(2.0, T26, [-1.0], 100, seed=0)
    with pytest.raises(UsageError, match="finite"):
        first_moment_check(2.0, T26, [0.5, math.inf], 100, seed=0)


@pytest.mark.parametrize("times", ["0.5", [0.5, "1.0"], [None], "0.5,1.0"])
def test_first_moment_rejects_non_numeric_times(times):
    # a string is one bad entry, never a list of its characters
    with pytest.raises(UsageError, match="real numbers"):
        first_moment_check(1.5, Torus(2, 4), times, 10, 0)


def test_pair_moment_time_zero_is_exact():
    o = origin(2)
    rows = pair_moment_mc(2.0, T26, 0.0, [o, (1, 0)], 50, seed=0)
    for _, mean, se in rows:
        assert mean == 1.0 and se == 0.0


def test_pair_moment_determinism_and_shapes():
    rows_a = pair_moment_mc(1.5, T26, 0.8, [(0, 0), (1, 0), (2, 0)], 40, seed=3)
    rows_b = pair_moment_mc(1.5, T26, 0.8, [(0, 0), (1, 0), (2, 0)], 40, seed=3)
    assert rows_a == rows_b
    assert [u for u, _, _ in rows_a] == [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(UsageError):
        pair_moment_mc(1.5, T26, 0.8, [(0, 0, 0)], 40, seed=3)
    with pytest.raises(UsageError, match="finite"):
        pair_moment_mc(1.5, T26, math.inf, [(0, 0)], 1, seed=3)
