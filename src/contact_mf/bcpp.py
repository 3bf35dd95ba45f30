"""Linear particle field whose support moves like the contact process.

Each torus site carries a nonnegative real value, all starting at 1.  A
site's value drops to 0 at rate 1; at rate lam/(2d) per neighbor the site
REPLACES its value by (its value + that neighbor's value).  Between events
every value decays deterministically, d/dt value = (1 - lam) * value, so
for lam > 1 the flow shrinks values while the additive events grow them.
The normalization is chosen to make the origin's expected value exactly 1
at all times on any vertex-transitive graph, which gives the test suite a
parameter-free calibration target.

The strictly-positive sites evolve exactly like contact-process infection
(value COPIES arrive from infected neighbors; zeroing is recovery), so a
single event stream drives both processes with identical supports —
`run_coupled` asserts that identity event by event.

Deterministic decay is applied lazily: each site stores its value as of
its own last event, and reads rescale by exp((1-lam)*(t - last_event)).
The exponential is multiplicative over time splits, so laziness is exact.
"""

from __future__ import annotations

import functools
import logging
import math
from math import exp

import numpy as np

from .errors import InvariantViolation, UsageError
from .lattice import Torus, origin
from .rng import substream

__all__ = [
    "BcppField",
    "run_coupled",
    "first_moment_check",
    "pair_moment_mc",
]

logger = logging.getLogger(__name__)


@functools.lru_cache(maxsize=8)
def _neighbor_lists(torus: Torus) -> list[list[int]]:  # shared by fields: read-only
    return torus.neighbor_index_table().tolist()


class BcppField:
    """Values on a torus under the zero/add event dynamics, lazily decayed."""

    __slots__ = (
        "torus", "lam", "values", "last", "time", "support",
        "_nbrs", "_decay", "_deg", "_underflow_count",
    )

    def __init__(self, torus: Torus, lam: float):
        if not isinstance(torus, Torus):
            raise UsageError(f"field needs a finite Torus, got {torus!r}")
        if lam <= 0:
            raise UsageError(f"infection rate must be positive, got {lam}")
        self.torus = torus
        self.lam = lam
        n = torus.volume
        self.values: list[float] = [1.0] * n
        self.last: list[float] = [0.0] * n
        self.time = 0.0
        self.support: set[int] = set(range(n))
        self._nbrs = _neighbor_lists(torus)
        self._decay = 1.0 - lam
        self._deg = 2 * torus.dimension
        self._underflow_count = 0

    def value_at(self, idx: int) -> float:
        """Site value at the field's current time."""
        v = self.values[idx]
        if v == 0.0:
            return 0.0
        return v * exp(self._decay * (self.time - self.last[idx]))

    def values_array(self) -> np.ndarray:
        """All site values at the current time, as a fresh array."""
        v = np.array(self.values)
        gaps = self.time - np.array(self.last)
        return v * np.exp(self._decay * gaps)

    def _note_underflow(self) -> None:
        self._underflow_count += 1
        if self._underflow_count == 1:
            logger.warning(
                "site value underflowed to 0 at t=%.6g (lam=%g); support "
                "will disagree with the strictly-positive ideal from here on",
                self.time, self.lam,
            )

    def step(self, rng) -> tuple[int, int | None]:
        """Apply one event; returns (site, source) with source None on zeroing."""
        n = len(self.values)
        self.time += rng.expovariate(n * (1.0 + self.lam))
        x = rng.randrange(n)
        if rng.random() * (1.0 + self.lam) < 1.0:
            self._zero(x)
            return x, None
        y = self._nbrs[x][rng.randrange(self._deg)]
        self._absorb(x, y)
        return x, y

    def _zero(self, x: int) -> None:
        if self.values[x] > 0.0:
            self.values[x] = 0.0
            self.support.discard(x)

    def _absorb(self, x: int, y: int) -> None:
        """x's value becomes value(x) + value(y), read at the current time."""
        t = self.time
        dr = self._decay
        values = self.values
        last = self.last
        vx = values[x]
        if vx > 0.0:
            vx *= exp(dr * (t - last[x]))
        vy = values[y]
        if vy > 0.0:
            vy *= exp(dr * (t - last[y]))
        nv = vx + vy
        values[x] = nv
        last[x] = t
        if nv > 0.0:
            if vx == 0.0:
                self.support.add(x)
        else:
            if vx > 0.0:
                self.support.discard(x)
            if vx > 0.0 or vy > 0.0:
                self._note_underflow()

    def run_until(self, t_end: float, rng) -> None:
        """Advance to exactly t_end (events after it are not drawn).

        The total event rate does not depend on the configuration, so
        stopping and restarting the exponential clock at t_end is exact.
        """
        if t_end < self.time:
            raise UsageError(f"cannot run backwards: {t_end} < {self.time}")
        n = len(self.values)
        rate = n * (1.0 + self.lam)
        lam1 = 1.0 + self.lam
        deg = self._deg
        dr = self._decay
        values = self.values
        last = self.last
        support = self.support
        nbrs = self._nbrs
        expo = rng.expovariate
        uni = rng.random
        rr = rng.randrange
        t = self.time
        while True:
            dt = expo(rate)
            if t + dt > t_end:
                self.time = t_end
                return
            t += dt
            x = rr(n)
            if uni() * lam1 < 1.0:
                if values[x] > 0.0:
                    values[x] = 0.0
                    support.discard(x)
            else:
                y = nbrs[x][rr(deg)]
                vx = values[x]
                if vx > 0.0:
                    vx *= exp(dr * (t - last[x]))
                vy = values[y]
                if vy > 0.0:
                    vy *= exp(dr * (t - last[y]))
                nv = vx + vy
                values[x] = nv
                last[x] = t
                if nv > 0.0:
                    if vx == 0.0:
                        support.add(x)
                else:
                    if vx > 0.0:
                        support.discard(x)
                    if vx > 0.0 or vy > 0.0:
                        self.time = t
                        self._note_underflow()


def run_coupled(lam: float, torus: Torus, horizon: float, rng) -> int:
    """Drive the field and a contact-process set off one event stream.

    After every single event the field's strictly-positive support must
    equal the infected set; any mismatch raises InvariantViolation.
    Returns the number of events processed.
    """
    if horizon <= 0:
        raise UsageError(f"horizon must be positive, got {horizon}")
    field = BcppField(torus, lam)
    n = torus.volume
    infected = set(range(n))
    rate = n * (1.0 + lam)
    events = 0
    t = 0.0
    while True:
        dt = rng.expovariate(rate)
        if t + dt > horizon:
            return events
        t += dt
        field.time = t
        x = rng.randrange(n)
        if rng.random() * (1.0 + lam) < 1.0:
            field._zero(x)
            infected.discard(x)
        else:
            y = field._nbrs[x][rng.randrange(field._deg)]
            field._absorb(x, y)
            if y in infected:
                infected.add(x)
        events += 1
        if infected != field.support:
            missing = infected - field.support
            extra = field.support - infected
            raise InvariantViolation(
                f"support mismatch after event {events} at t={t:.6g}: "
                f"infected-without-value {sorted(missing)[:5]}, "
                f"value-without-infection {sorted(extra)[:5]}"
            )


def first_moment_check(
    lam: float,
    torus: Torus,
    times,
    n_trials: int,
    seed: int,
) -> list[tuple[float, float, float]]:
    """Estimate E[value at origin] at each checkpoint time.

    Vertex transitivity of the torus plus the decay normalization make
    the exact answer 1 at every time; the estimator is a plain mean over
    independent trials, each trial visiting all checkpoints in one run.
    Returns (t, mean, std_err) per checkpoint.
    """
    if n_trials < 2:
        raise UsageError("need at least 2 trials for a standard error")
    checkpoints = sorted(float(t) for t in (times if hasattr(times, "__iter__") else [times]))
    if not checkpoints or checkpoints[0] < 0:
        raise UsageError(f"checkpoint times must be >= 0, got {times!r}")
    o = torus.index(origin(torus.dimension))
    sums = [0.0] * len(checkpoints)
    sumsq = [0.0] * len(checkpoints)
    for trial in range(n_trials):
        rng = substream(seed, "first-moment", trial)
        field = BcppField(torus, lam)
        for j, cp in enumerate(checkpoints):
            field.run_until(cp, rng)
            v = field.value_at(o)
            sums[j] += v
            sumsq[j] += v * v
    rows = []
    for j, cp in enumerate(checkpoints):
        mean = sums[j] / n_trials
        var = max(0.0, (sumsq[j] - n_trials * mean * mean) / (n_trials - 1))
        rows.append((cp, mean, math.sqrt(var / n_trials)))
    return rows


def pair_moment_mc(
    lam: float,
    torus: Torus,
    t: float,
    offsets,
    n_trials: int,
    seed: int,
) -> list[tuple[tuple[int, ...], float, float]]:
    """Estimate E[value(O) * value(u)] for each offset u at time t.

    Uses the torus's translation invariance: each trial contributes the
    spatial average of value(x)*value(x+u) over all x, which has the same
    mean as the origin pair but much smaller variance.  Returns
    (offset, mean, std_err) rows.
    """
    if n_trials < 2:
        raise UsageError("need at least 2 trials for a standard error")
    if t < 0:
        raise UsageError(f"time must be >= 0, got {t}")
    d = torus.dimension
    side = torus.side
    perms = []
    for u in offsets:
        if len(u) != d:
            raise UsageError(f"offset {u} does not have dimension {d}")
        perm = np.empty(torus.volume, dtype=np.int64)
        for i in range(torus.volume):
            v = torus.vertex(i)
            shifted = tuple((v[k] + u[k]) % side for k in range(d))
            perm[i] = torus.index(shifted)
        perms.append(perm)
    sums = [0.0] * len(perms)
    sumsq = [0.0] * len(perms)
    for trial in range(n_trials):
        rng = substream(seed, "pair-moment", trial)
        field = BcppField(torus, lam)
        field.run_until(t, rng)
        arr = field.values_array()
        for j, perm in enumerate(perms):
            est = float((arr * arr[perm]).mean())
            sums[j] += est
            sumsq[j] += est * est
    rows = []
    for j, u in enumerate(offsets):
        mean = sums[j] / n_trials
        var = max(0.0, (sumsq[j] - n_trials * mean * mean) / (n_trials - 1))
        rows.append((tuple(u), mean, math.sqrt(var / n_trials)))
    return rows
