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

import math
import numbers
from math import exp, log
from typing import TYPE_CHECKING

from .errors import InvariantViolation, UsageError
from .lattice import Torus, flat_neighbors, origin
from .rng import substream

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BcppField",
    "run_coupled",
    "mean_rows",
    "checkpoint_times",
    "first_moment_values",
    "first_moment_check",
    "pair_moment_mc",
]


class BcppField:
    """Values on a torus under the zero/add event dynamics, lazily decayed."""

    __slots__ = (
        "lam", "values", "last", "time", "support", "_nbrs", "_decay", "_deg", "_underflow_count",
    )

    def __init__(self, torus: Torus, lam: float):
        if not isinstance(torus, Torus):
            raise UsageError(f"field needs a finite Torus, got {torus!r}")
        if not (lam > 0):
            raise UsageError(f"infection rate must be positive, got {lam}")
        self.lam = lam
        n = torus.volume
        self.values: list[float] = [1.0] * n
        self.last: list[float] = [0.0] * n
        self.time = 0.0
        self.support: set[int] = set(range(n))
        self._nbrs = flat_neighbors(torus)
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
        import numpy as np

        v = np.array(self.values)
        gaps = self.time - np.array(self.last)
        return v * np.exp(self._decay * gaps)

    def _note_underflow(self) -> None:
        self._underflow_count += 1
        if self._underflow_count == 1:
            import logging

            logging.getLogger(__name__).warning(
                "site value underflowed to 0 at t=%.6g (lam=%g); support "
                "will disagree with the strictly-positive ideal from here on",
                self.time, self.lam,
            )

    def run_until(self, t_end: float, rng, on_event=None) -> None:
        """Advance to exactly t_end (events after it are not applied).

        Each event draws a site; its value drops to 0, or becomes its value
        plus a neighbor's (the source), both read at the event time.  The
        total event rate does not depend on the configuration, so stopping
        and restarting the exponential clock at t_end is exact.  With
        on_event set, each applied event sets self.time to its time, then
        calls on_event(site, source), with source None on a zeroing.
        """
        if not (t_end >= self.time):
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
        # rng.expovariate and rng.randrange inlined, as in contact.run_trial
        uni = rng.random
        bits = rng.getrandbits
        n_bits = n.bit_length()
        deg_bits = deg.bit_length()
        t = self.time
        while True:
            dt = -log(1.0 - uni()) / rate
            if t + dt > t_end:
                self.time = t_end
                return
            t += dt
            x = bits(n_bits)
            while x >= n:
                x = bits(n_bits)
            if uni() * lam1 < 1.0:
                y = None
                if values[x] > 0.0:
                    values[x] = 0.0
                    support.discard(x)
            else:
                k = bits(deg_bits)
                while k >= deg:
                    k = bits(deg_bits)
                y = nbrs[x * deg + k]
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
            if on_event is not None:
                self.time = t
                on_event(x, y)


def run_coupled(lam: float, torus: Torus, horizon: float, rng) -> int:
    """Drive the field and a contact-process set off one event stream.

    Each event of field.run_until is replayed on the infected set: a
    zeroing is a recovery, an absorption copies the source's infection.
    After every single event the field's strictly-positive support must
    equal the infected set; any mismatch raises InvariantViolation.
    Returns the number of events up to the horizon (the wait to the first
    event past it is drawn, but that event is neither counted nor checked).
    """
    if not 0 < horizon < math.inf:
        raise UsageError(f"horizon must be positive and finite, got {horizon}")
    field = BcppField(torus, lam)
    infected = set(field.support)
    events = 0

    def replay(x, y):
        nonlocal events
        events += 1
        if y is None:
            infected.discard(x)
        elif y in infected:
            infected.add(x)
        if infected != field.support:
            missing = infected - field.support
            extra = field.support - infected
            raise InvariantViolation(
                f"support mismatch after event {events} at t={field.time:.6g}: "
                f"infected-without-value {sorted(missing)[:5]}, "
                f"value-without-infection {sorted(extra)[:5]}"
            )

    field.run_until(horizon, rng, replay)
    return events


def mean_rows(keys, trial_rows) -> list[tuple]:
    """(key, mean, std_err) per key over per-trial rows, each row holding
    one value per key in key order; sums run in row order."""
    sums = [0.0] * len(keys)
    sumsq = [0.0] * len(keys)
    n_trials = 0
    for row in trial_rows:
        n_trials += 1
        for j, v in enumerate(row):
            sums[j] += v
            sumsq[j] += v * v
    if n_trials < 2:
        raise UsageError("need at least 2 trials for a standard error")
    rows = []
    for key, total, total_sq in zip(keys, sums, sumsq):
        mean = total / n_trials
        var = max(0.0, (total_sq - n_trials * mean * mean) / (n_trials - 1))
        rows.append((key, mean, math.sqrt(var / n_trials)))
    return rows


def checkpoint_times(times) -> list[float]:
    """The checkpoint times, ascending; refuses a non-real or negative one.
    A single number, or a str (never split into characters), is one entry."""
    points = [times] if isinstance(times, str) or not hasattr(times, "__iter__") else list(times)
    if not all(isinstance(t, numbers.Real) for t in points):
        raise UsageError(f"checkpoint times must be real numbers, got {times!r}")
    ordered = sorted(float(t) for t in points)
    if not ordered or not all(0 <= t < math.inf for t in ordered):
        raise UsageError(f"checkpoint times must be >= 0 and finite, got {times!r}")
    return ordered


def first_moment_values(lam: float, torus: Torus, checkpoints: list[float], trials: range,
                        seed: int) -> list[list[float]]:
    """The origin's value at each checkpoint (ascending, as checkpoint_times
    returns them), one row per trial index in `trials`.  Trial i draws only
    from its own substream, whatever block or process runs it."""
    o = torus.index(origin(torus.dimension))
    rows = []
    for trial in trials:
        rng = substream(seed, "first-moment", trial)
        field = BcppField(torus, lam)
        row = []
        for cp in checkpoints:
            field.run_until(cp, rng)
            row.append(field.value_at(o))
        rows.append(row)
    return rows


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
    checkpoints = checkpoint_times(times)
    values = first_moment_values(lam, torus, checkpoints, range(n_trials), seed)
    return mean_rows(checkpoints, values)


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
    if not 0 <= t < math.inf:
        raise UsageError(f"time must be >= 0 and finite, got {t}")
    perms = [torus.translation(u) for u in offsets]

    def trial_values(trial):
        field = BcppField(torus, lam)
        field.run_until(t, substream(seed, "pair-moment", trial))
        arr = field.values_array()
        return [float((arr * arr[perm]).mean()) for perm in perms]

    return mean_rows([tuple(u) for u in offsets], map(trial_values, range(n_trials)))
