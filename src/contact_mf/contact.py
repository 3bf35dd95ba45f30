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

Vertices are tuples at the API and ints inside `run_trial`: on Z^d one
signed 32-bit field per coordinate, so a neighbor is x + step[k]; on a
torus the flat index, so a neighbor is a `lattice.flat_neighbors` lookup
(a pure-Python table on purpose: the torus commands never load numpy).
Only an addition puts a site further out, by one step, so a budget of
additions keeps every |coordinate| below CODE_LIMIT, or raises NumericalError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import log

from .analytics import threshold_error_bound
from .errors import NumericalError, UsageError
from .lattice import Torus, Vertex, check_dimension, flat_neighbors, origin
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
CODE_LIMIT = 2**30   # bound on |coordinate| inside run_trial


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


class SampleSet(list):
    """A start that run_trial advances in place: a list of vertices, each
    kept once, in the order first given.  Any other iterable start is only
    read."""

    def __init__(self, vertices=()):
        list.__init__(self, dict.fromkeys(vertices))


@dataclass(frozen=True)
class TrialOutcome:
    verdict: str                    # EXTINCT | REACHED_THRESHOLD | CENSORED
    extinction_time: float | None   # set only when extinct
    max_size: int
    event_count: int


def _encode(v: Vertex) -> int:
    return functools.reduce(lambda code, c: (code << 32) + c, v, 0)


def _decode(code: int, d: int) -> Vertex:
    code += sum(2**31 << 32 * a for a in range(d))   # every field now in [0, 2^32)
    return tuple(((code >> 32 * a) & (2**32 - 1)) - 2**31 for a in reversed(range(d)))


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
    the horizon is the pre-event one).  A SampleSet start ends holding the
    final configuration, in the kernel's item order and wrapped on a torus;
    any other start is only read.  Threshold math.inf runs to the horizon
    or extinction.
    """
    if not (horizon > 0) or threshold < 1:
        raise UsageError("horizon must be positive and threshold >= 1")
    d2 = 2 * params.d
    d2_bits = d2.bit_length()
    geo = params.geometry
    start = list(initial)
    for v in start:
        check_dimension(v, params.d)
    if geo is None:
        far = max((abs(c) for v in start for c in v), default=0)
        if far >= CODE_LIMIT:
            raise UsageError(f"start coordinates must be below {CODE_LIMIT} in size, got {far}")
        budget = CODE_LIMIT - 1 - far   # an addition goes one step past its source
        nbr, code, decode = None, _encode, functools.partial(_decode, d=params.d)
        step = [s << 32 * (params.d - 1 - axis) for axis in range(params.d) for s in (1, -1)]
    else:
        budget, step, nbr = math.inf, None, flat_neighbors(geo)
        code, decode = geo.index, geo.vertex
    items = list(dict.fromkeys(map(code, start)))   # SampleSet(start)'s order
    pos = {x: j for j, x in enumerate(items)}
    rate_per_site = 1.0 + params.lam
    t = 0.0
    events = 0
    max_size = len(items)
    # rng.expovariate and rng.randrange inlined: the same draws, in order
    uniform = rng.random
    bits = rng.getrandbits
    while True:
        n = len(items)
        if n == 0 or n >= threshold:
            break
        dt = -log(1.0 - uniform()) / (n * rate_per_site)
        if t + dt > horizon:
            break
        t += dt
        events += 1
        recovery = uniform() * rate_per_site < 1.0
        i = bits(n.bit_length())
        while i >= n:
            i = bits(n.bit_length())
        if recovery:   # the last item fills the gap
            x, items[i] = items[i], items[-1]
            pos[items[i]] = i
            items.pop()
            del pos[x]
        else:
            k = bits(d2_bits)
            while k >= d2:
                k = bits(d2_bits)
            y = items[i] + step[k] if nbr is None else nbr[items[i] * d2 + k]
            if y not in pos:   # not yet infected
                budget -= 1
                if budget < 0:
                    raise NumericalError(f"additions spent: a coordinate could reach {CODE_LIMIT}")
                pos[y] = n
                items.append(y)
                if n >= max_size:
                    max_size = n + 1
    if isinstance(initial, SampleSet):
        initial[:] = map(decode, items)
    if n == 0:
        return TrialOutcome(EXTINCT, t, max_size, events)
    return TrialOutcome(REACHED_THRESHOLD if n >= threshold else CENSORED, None, max_size, events)


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
    Requires finite geometry (on the infinite lattice the all-infected
    start is not simulable) and a finite t >= 0.
    """
    torus = params.geometry
    if torus is None:
        raise UsageError("the duality check needs a Torus geometry")
    if not 0 <= t < math.inf:
        raise UsageError(f"time must be >= 0 and finite, got {t}")
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
    look standard normal.  tally_duality refuses a torus-less params or a
    t outside [0, inf).
    """
    counts = tally_duality(params, t, range(n_trials), seed)
    return summarize_duality(*counts, n_trials)

