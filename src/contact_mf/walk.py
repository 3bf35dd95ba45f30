"""Origin-hitting probabilities for the simple random walk on Z^d.

The exact value is ``analytics.hitting_exact``, the Watson–Montroll
integral in scalar math.  This module holds the two independent routes
that check it:

* ``hitting_mc`` — direct Monte Carlo over many walks started at a unit
  vector, with a distance-block trick that advances each walk by its full
  current l1-distance at once (a walk at distance r cannot touch the
  origin in fewer than r steps, so nothing is lost by only inspecting
  block endpoints).  Every round advances the same way: walks at distance
  at most ``_RAW_BLOCK_CUTOFF`` take raw unit steps, the rest one
  multinomial draw each.

* ``hitting_harmonic`` — the discrete Dirichlet problem on a sup-norm box:
  h is harmonic away from the origin, pinned to 1 there, and 0 outside the
  box.  ``absorbing_solve`` solves it by conjugate gradients over canonical
  octant classes and returns every class's value; ``hitting_harmonic``
  returns only the estimate at e1.  The absorbing solve is a rigorous lower
  bound for the infinite-lattice value; the estimate's bracket pads it
  with twice the observed increment between radius R and R//2 (the
  truncation deficit shrinks like 1/R, so doubling the last observed gain
  over-covers what remains).  Solves and the class tables under them run
  once per process, cached and read-only.

The correlation machinery (offset of the stationary correlation vector,
pair bounds) takes its return probabilities from the absorbing solve, so
that truncation conventions stay consistent; the survival floors take
the exact value.  The Monte Carlo route is the independent check, and
``kesten_check`` tabulates it across dimensions as (rows, problems).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .lattice import class_neighbor_table, class_orbit_sizes, origin, unit_vector
from .rng import np_substream

__all__ = [
    "HittingEstimate",
    "hitting_mc",
    "hitting_harmonic",
    "absorbing_solve",
    "kesten_check",
]


@dataclass(frozen=True)
class HittingEstimate:
    """One estimate of P(walk from a unit vector ever visits the origin).

    ``bracket`` is only populated by the harmonic solver: (rigorous lower
    bound, padded upper estimate).  ``std_err`` only by Monte Carlo.  The
    route that leaves one unset leaves it NaN.
    """

    h: float
    method: str            # "monte-carlo" | "harmonic-solve"
    std_err: float = math.nan
    bracket: tuple[float, float] = (math.nan, math.nan)
    n_walks: int | None = None


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# draws of a few unit steps are ~10ns each while any binomial-family call
# pays ~1us/row in parameter setup, so short blocks are cheaper done raw
_RAW_BLOCK_CUTOFF = 96
MC_CHUNK_WALKS = 200_000  # walks per chunk; chunk c draws from substream c


def _advance_raw(pos, rows, ks, d, rng):
    """Advance pos[rows] by ks[i] raw uniform unit steps each (in place),
    tallied per (row, direction) cell by one bincount."""
    dirs = rng.integers(0, 2 * d, int(ks.sum()), dtype=np.int8)
    cells = np.repeat(np.arange(0, 2 * d * len(ks), 2 * d), ks)
    cells += dirs
    counts = np.bincount(cells, minlength=2 * d * len(ks)).reshape(len(ks), 2 * d)
    pos[rows] += counts[:, 0::2] - counts[:, 1::2]


def _mc_chunk(d: int, n: int, max_steps: int, rng: np.random.Generator) -> int:
    """Count origin hits among n walks from e1 within max_steps steps.

    Walks advance in blocks of k = (current l1-distance) steps; the only
    step inside such a block at which the origin can be visited is the
    last one, so checking block endpoints is exact.  Walks whose
    remaining budget is smaller than their distance are retired early.
    Each round, blocks of at most _RAW_BLOCK_CUTOFF steps are sampled as
    raw unit steps and longer ones as one multinomial endpoint draw; both
    are the exact k-step law.
    """
    pos = np.zeros((n, d), dtype=np.int64)
    pos[:, 0] = 1
    remaining = np.full(n, max_steps, dtype=np.int64)
    probs = np.full(2 * d, 1.0 / (2 * d))
    hits = 0
    while pos.shape[0]:
        dist = np.abs(pos).sum(axis=1)
        # hits from the previous round's advance land exactly at dist 0;
        # rows whose budget cannot cover their distance can never hit
        at_origin = dist == 0
        infeasible = remaining < dist
        n_hit = int(at_origin.sum())
        hits += n_hit
        if n_hit or infeasible.any():
            keep = ~at_origin & ~infeasible
            pos = np.compress(keep, pos, axis=0)   # 4x a boolean row index
            remaining = remaining[keep]
            dist = dist[keep]
            if not pos.shape[0]:
                break
        # either side may be empty: an empty draw leaves rng untouched
        small = dist <= _RAW_BLOCK_CUTOFF
        rows = np.flatnonzero(small)
        _advance_raw(pos, rows, dist[rows], d, rng)
        big = np.flatnonzero(~small)
        counts = rng.multinomial(dist[big], probs)
        pos[big] += counts[:, 0::2] - counts[:, 1::2]
        remaining -= dist
    return hits


@functools.lru_cache(maxsize=32)
def hitting_mc(
    d: int,
    n_walks: int = 1_000_000,
    max_steps: int = 10_000,
    seed: int = 0,
) -> HittingEstimate:
    """Monte Carlo estimate of the origin-hitting probability from e1.

    Truncation bias: hits later than max_steps are missed, so the
    estimator's mean sits slightly below the infinite-horizon value
    (for d >= 3 the deficit is O(1/sqrt(max_steps))).
    """
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if n_walks < 1 or max_steps < 1:
        raise UsageError("n_walks and max_steps must be positive")
    hits = 0
    done = 0
    chunk = 0
    while done < n_walks:
        m = min(MC_CHUNK_WALKS, n_walks - done)
        rng = np_substream(seed, "hitting-mc", d, chunk)
        hits += _mc_chunk(d, m, max_steps, rng)
        done += m
        chunk += 1
    h = hits / n_walks
    std_err = math.sqrt(h * (1.0 - h) / n_walks)
    return HittingEstimate(
        h=h,
        method="monte-carlo",
        std_err=std_err,
        n_walks=n_walks,
    )


# ---------------------------------------------------------------------------
# Dirichlet solve
# ---------------------------------------------------------------------------

SOLVE_TOL = 1e-13              # stop once the sup-norm equation residual is below
SOLVE_MAX_ITERATIONS = 10_000  # raise NumericalError if still above after this many


@functools.lru_cache(maxsize=64)
def absorbing_solve(d: int, radius: int, /):
    """Solve h = average of neighbors, h(O)=1, h=0 at sup-norm >= radius.

    Returns (classes, h) with h indexed like class_neighbor_table(d, radius-1)[0].
    Treat both as read-only: results are cached and shared, one entry per
    (d, radius) (the arguments are positional-only, so no two spellings of
    the same solve can miss each other's entry).

    Conjugate gradients, with the pinned origin moved to the right-hand
    side, in the inner product weighted by lattice.class_orbit_sizes, where
    the class walk operator is self-adjoint.  Stops once the sup-norm
    equation residual r is below SOLVE_TOL; raises NumericalError when
    SOLVE_MAX_ITERATIONS do not get there.  The true h exceeds the iterate
    by at most ||r|| times the expected exit time from the box, at most
    d*R^2, so that much comes off every entry but h(O) = 1: h stays a
    rigorous lower bound, up to rounding.
    """
    if d < 1 or radius < 2:
        raise UsageError(f"need d >= 1 and radius >= 2, got d={d}, radius={radius}")
    classes, index, nbr = class_neighbor_table(d, radius - 1)
    n = len(classes)
    o = index[origin(d)]
    # slot n is the absorbed exterior, fixed at 0
    nbr_idx = np.where(nbr < 0, n, nbr)
    w = class_orbit_sizes(classes)

    def residual(v: np.ndarray) -> np.ndarray:
        """Neighbor average minus v on every row but the origin's."""
        r = v[nbr_idx].sum(axis=1) / (2 * d) - v[:n]
        r[o] = 0.0
        return r

    h = np.zeros(n + 1)
    h[o] = 1.0
    r = residual(h)
    p = np.append(r, 0.0)
    rr = float(w @ (r * r))
    for _ in range(SOLVE_MAX_ITERATIONS):
        q = -residual(p)   # (I - P) p; p vanishes at the origin and outside
        alpha = rr / float(w @ (p[:n] * q))
        h[:n] += alpha * p[:n]
        r -= alpha * q
        if np.abs(r).max() < SOLVE_TOL:
            break
        rr, rr_old = float(w @ (r * r)), rr
        p[:n] = r + (rr / rr_old) * p[:n]
    else:
        raise NumericalError(
            f"harmonic solve stalled: d={d} radius={radius}, residual {np.abs(r).max():.3e} "
            f"after {SOLVE_MAX_ITERATIONS} iterations (tol {SOLVE_TOL:.1e})"
        )
    # the recursively updated r drifts from the true one in late digits
    deficit = d * radius**2 * float(np.abs(residual(h)).max())
    h[:n] -= deficit
    h[o] = 1.0
    return classes, h[:n].copy()


def hitting_harmonic(d: int, radius: int) -> HittingEstimate:
    """Dirichlet-problem estimate of the hitting probability, with bracket.

    The estimate's h is the absorbing value at e1 — a rigorous lower bound
    for the infinite lattice — and bracket = (h_R, h_R + 2*(h_R - h_{R//2}))
    clamped to [0, 1].  The per-class values are absorbing_solve(d, radius).
    """
    classes, h = absorbing_solve(d, radius)
    e1 = unit_vector(d)
    lower = float(h[classes.index(e1)])
    if radius // 2 >= 2:
        half_classes, h_half = absorbing_solve(d, radius // 2)
        h_half_e1 = h_half[half_classes.index(e1)]
        upper = min(1.0, lower + 2.0 * max(0.0, lower - h_half_e1))
    else:
        upper = 1.0
    return HittingEstimate(
        h=lower,
        method="harmonic-solve",
        bracket=(lower, upper),
    )


# ---------------------------------------------------------------------------
# Dimension sweeps
# ---------------------------------------------------------------------------

def kesten_check(
    dims: list[int],
    n_walks: int = 1_000_000,
    max_steps: int = 10_000,
    seed: int = 0,
) -> tuple[list[tuple[int, float, float, float]], list[str]]:
    """Tabulate (d, h, 2*d*h, std_err) across dimensions and sanity-check.

    Returns (rows, problems).  A problem is a sentence naming a row where
    2*d*h leaves (0.85, 1.15) at d >= 8, or where h fails to decrease
    with d beyond joint 3-sigma noise; an empty list means the table
    passed.
    """
    if not dims:
        raise UsageError("empty dimension list")
    rows = []
    for d in sorted(dims):
        est = hitting_mc(d, n_walks=n_walks, max_steps=max_steps, seed=seed)
        rows.append((d, est.h, 2 * d * est.h, est.std_err))
    problems = []
    for d, h, scaled, _ in rows:
        if d >= 8 and not (0.85 < scaled < 1.15):
            problems.append(f"2*d*h = {scaled:.5f} at d={d} outside (0.85, 1.15)")
    for (d0, h0, _, se0), (d1, h1, _, se1) in zip(rows, rows[1:]):
        slack = 3.0 * math.hypot(se0, se1)
        if h1 > h0 + slack:
            problems.append(
                f"h not decreasing: h({d1})={h1:.5f} > h({d0})={h0:.5f} + 3-sigma"
            )
    return rows, problems

