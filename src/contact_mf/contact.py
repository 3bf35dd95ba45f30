"""Event-driven simulation of the contact process.

Infected sites recover at rate 1 and push infection onto each of their 2d
neighbors at rate lam/(2d).  The attempt-based event loop samples, while k
sites are infected, an Exp(k*(1+lam)) waiting time, then with probability
1/(1+lam) recovers a uniformly random infected site and otherwise lets a
uniformly random infected site attempt to infect a uniformly random
neighbor (a no-op when the neighbor is already infected).  No-op attempts
are deliberately kept in the event stream: they make the total event rate
depend only on the infected count, which is what the monotone couplings
and the linear-system pairing both lean on.

Trials run until extinction, until the infected count reaches a threshold
(a proxy for survival: from a large set at lam > 1 dying out is
exponentially unlikely in the threshold), or until a time horizon censors
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log

from .analytics import threshold_error_bound
from .errors import UsageError
from .lattice import Torus, Vertex, origin
from .rng import substream

__all__ = [
    "EXTINCT",
    "REACHED_THRESHOLD",
    "CENSORED",
    "ContactParams",
    "SampleSet",
    "TrialOutcome",
    "SurvivalEstimate",
    "run_trial",
    "run_to_time",
    "tally_survival",
    "summarize_survival",
    "estimate_survival",
    "DualityResult",
    "tally_duality",
    "summarize_duality",
    "duality_check",
]

EXTINCT = "extinct"
REACHED_THRESHOLD = "reached_threshold"
CENSORED = "censored"


@dataclass(frozen=True)
class ContactParams:
    """Infection rate, dimension, and optional finite geometry.

    geometry None means the infinite lattice (vertices are integer
    tuples); a Torus wraps coordinates to its side length.
    """

    lam: float
    d: int
    geometry: Torus | None = None

    def __post_init__(self):
        # lam == 0 is the pure-death process (recovery only) and is a
        # legitimate boundary case for the simulator; only negative rates
        # are rejected.  Analytic bounds have their own stricter domains.
        if not (self.lam >= 0):
            raise UsageError(f"infection rate must be nonnegative, got {self.lam}")
        if not isinstance(self.d, int) or self.d < 1:
            raise UsageError(f"dimension must be a positive integer, got {self.d!r}")
        if self.geometry is not None and self.geometry.dimension != self.d:
            raise UsageError(
                f"geometry dimension {self.geometry.dimension} != d={self.d}"
            )


class SampleSet:
    """Set of vertices with O(1) add/discard/membership and uniform choice.

    The classic list-plus-index-map structure: deletion swaps the victim
    with the last list element so the list stays dense and `choose` is a
    single randrange.
    """

    __slots__ = ("items", "_pos")

    def __init__(self, iterable=()):
        self.items: list[Vertex] = []
        self._pos: dict[Vertex, int] = {}
        for v in iterable:
            self.add(v)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, v) -> bool:
        return v in self._pos

    def __iter__(self):
        return iter(self.items)

    def add(self, v: Vertex) -> None:
        if v not in self._pos:
            self._pos[v] = len(self.items)
            self.items.append(v)

    def discard(self, v: Vertex) -> None:
        i = self._pos.pop(v, None)
        if i is None:
            return
        last = self.items.pop()
        if last != v:
            self.items[i] = last
            self._pos[last] = i

    def choose(self, rng) -> Vertex:
        return self.items[rng.randrange(len(self.items))]

    def as_set(self) -> set[Vertex]:
        return set(self.items)


@dataclass(frozen=True)
class TrialOutcome:
    verdict: str                    # EXTINCT | REACHED_THRESHOLD | CENSORED
    extinction_time: float | None   # set only when extinct
    max_size: int
    event_count: int


def run_trial(
    initial,
    params: ContactParams,
    horizon: float,
    threshold: int,
    rng,
) -> TrialOutcome:
    """Run one trial from the given initial set of infected vertices.

    This is the contact process's one event loop.  Checks, in order before
    each event: extinction, threshold reached, horizon crossed (the
    pending event would fire after the horizon, so the configuration at
    the horizon is the pre-event one).  A SampleSet start is advanced in
    place; threshold math.inf runs to the horizon or extinction.
    """
    if not (horizon > 0) or threshold < 1:
        raise UsageError("horizon must be positive and threshold >= 1")
    state = initial if isinstance(initial, SampleSet) else SampleSet(initial)
    rate_per_site = 1.0 + params.lam
    d2 = 2 * params.d
    d2_bits = d2.bit_length()
    geo = params.geometry
    side = geo.side if geo is not None else 0
    t = 0.0
    events = 0
    max_size = len(state)
    # rng.expovariate and rng.randrange inlined: the same draws, in order
    uniform = rng.random
    bits = rng.getrandbits
    items = state.items
    while True:
        n = len(items)
        if n == 0:
            return TrialOutcome(EXTINCT, t, max_size, events)
        if n >= threshold:
            return TrialOutcome(REACHED_THRESHOLD, None, max_size, events)
        dt = -log(1.0 - uniform()) / (n * rate_per_site)
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


def run_to_time(state: SampleSet, params: ContactParams, duration: float, rng) -> None:
    """Advance the configuration by exactly `duration` time units, in place.

    A run_trial with no threshold: the event whose waiting time would
    cross the end point is not applied (memorylessness makes the early
    cutoff exact).
    """
    if not (duration >= 0):
        raise UsageError(f"duration must be >= 0, got {duration}")
    if duration > 0:
        run_trial(state, params, duration, math.inf, rng)


@dataclass(frozen=True)
class SurvivalEstimate:
    p_hat: float
    std_err: float
    n_trials: int
    n_reached: int
    n_censored: int
    threshold: int
    horizon: float
    threshold_escape_bound: float   # lower bound on the false-survivor rate


def tally_survival(
    params: ContactParams,
    trials: range,
    horizon: float,
    threshold: int,
    seed: int,
) -> tuple[int, int]:
    """Run the given trial indices from a single infected origin.

    Returns (n_reached, n_censored).  Trial i draws only from its own
    substream, so tallies of disjoint index blocks sum to the tally of
    their union, whatever the order or process they run in.
    """
    start = (origin(params.d),)
    n_reached = 0
    n_censored = 0
    for trial in trials:
        rng = substream(seed, "trial", trial)
        out = run_trial(start, params, horizon, threshold, rng)
        if out.verdict == REACHED_THRESHOLD:
            n_reached += 1
        elif out.verdict == CENSORED:
            n_censored += 1
    return n_reached, n_censored


def summarize_survival(
    params: ContactParams,
    n_trials: int,
    n_reached: int,
    n_censored: int,
    horizon: float,
    threshold: int,
) -> SurvivalEstimate:
    """Turn the tally of n_trials trials into p_hat and its standard error."""
    if n_trials < 1:
        raise UsageError(f"n_trials must be >= 1, got {n_trials}")
    p_hat = n_reached / n_trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / n_trials)
    return SurvivalEstimate(
        p_hat=p_hat,
        std_err=std_err,
        n_trials=n_trials,
        n_reached=n_reached,
        n_censored=n_censored,
        threshold=threshold,
        horizon=horizon,
        threshold_escape_bound=threshold_error_bound(params.lam, threshold),
    )


def estimate_survival(
    params: ContactParams,
    n_trials: int,
    horizon: float,
    threshold: int,
    seed: int,
) -> SurvivalEstimate:
    """Estimate the survival probability from a single infected origin.

    p_hat is the fraction of trials that reach the threshold before the
    horizon; censored trials (neither extinct nor at threshold by the
    horizon) count against survival, which biases p_hat downward — the
    count is reported so the caller can judge.  Trials use disjoint
    substreams indexed by trial number, so results do not depend on
    execution order.
    """
    counts = tally_survival(params, range(n_trials), horizon, threshold, seed)
    return summarize_survival(params, n_trials, *counts, horizon, threshold)


@dataclass(frozen=True)
class DualityResult:
    p_single_survives: float
    p_full_covers_origin: float
    z_score: float
    n_trials: int


def tally_duality(params: ContactParams, t: float, trials: range, seed: int) -> tuple[int, int]:
    """Run the given trial indices of the duality check on params' torus.

    Returns (survived, covered): how many single-site starts live at time t
    and how many all-infected starts then cover the origin.  As in
    tally_survival, block tallies sum to the tally of the blocks' union.
    """
    torus = params.geometry
    o = origin(params.d)
    full = [torus.vertex(i) for i in range(torus.volume)]
    survived = covered = 0
    for trial in trials:
        single = SampleSet((o,))
        run_to_time(single, params, t, substream(seed, "single", trial))
        survived += len(single) > 0
        everyone = SampleSet(full)
        run_to_time(everyone, params, t, substream(seed, "full", trial))
        covered += o in everyone
    return survived, covered


def summarize_duality(survived: int, covered: int, n_trials: int) -> DualityResult:
    """Turn the tally of n_trials trials into both proportions and their
    pooled two-proportion z-score."""
    if n_trials < 1:
        raise UsageError(f"n_trials must be >= 1, got {n_trials}")
    p1 = survived / n_trials
    p2 = covered / n_trials
    pooled = (survived + covered) / (2 * n_trials)
    if pooled in (0.0, 1.0):
        z = 0.0   # both proportions degenerate and equal
    else:
        z = (p1 - p2) / math.sqrt(pooled * (1.0 - pooled) * 2.0 / n_trials)
    return DualityResult(p1, p2, z, n_trials)


def duality_check(
    params: ContactParams,
    t: float,
    n_trials: int,
    seed: int,
) -> DualityResult:
    """Compare P(eta_t^{O} nonempty) with P(eta_t^{full}(O) = 1) on a torus.

    The two are equal in law, so the pooled two-proportion z-score should
    look standard normal.  Requires finite geometry: on the infinite
    lattice the all-infected start is not simulable.
    """
    if params.geometry is None:
        raise UsageError("duality_check needs a Torus geometry")
    if not (t >= 0):
        raise UsageError(f"time must be >= 0, got {t}")
    counts = tally_duality(params, t, range(n_trials), seed)
    return summarize_duality(*counts, n_trials)

