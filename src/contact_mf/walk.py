"""Origin-hitting probabilities for the simple random walk on Z^d.

Two independent routes to the same number:

* ``hitting_mc`` — direct Monte Carlo over many walks started at a unit
  vector, with a distance-block trick that advances each walk by its full
  current l1-distance in a single multinomial draw (a walk at distance r
  cannot touch the origin in fewer than r steps, so nothing is lost by
  only inspecting block endpoints).

* ``hitting_harmonic`` — the discrete Dirichlet problem on a sup-norm box:
  h is harmonic away from the origin, pinned to 1 there, and 0 outside the
  box.  Solved by red-black Gauss-Seidel over canonical octant classes.
  The absorbing solve is a rigorous lower bound for the infinite-lattice
  value; the reported bracket pads it with twice the observed increment
  between radius R and R//2 (the truncation deficit shrinks like 1/R, so
  doubling the last observed gain over-covers what remains).  Solves and
  the class tables under them run once per process, cached and read-only.

Everything downstream that needs a return probability (offset of the
stationary correlation vector, pair bounds, survival floors) pulls it
from here so that truncation conventions stay consistent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NumericalError, UsageError
from .lattice import class_neighbor_table, origin, unit_vector
from .rng import np_substream

__all__ = [
    "HittingEstimate",
    "hitting_mc",
    "hitting_harmonic",
    "kesten_check",
    "stationary_offset",
]


@dataclass(frozen=True)
class HittingEstimate:
    """One estimate of P(walk from a unit vector ever visits the origin).

    ``bracket`` is only populated by the harmonic solver: (rigorous lower
    bound, padded upper estimate).  ``std_err`` only by Monte Carlo.
    """

    h: float
    method: str            # "monte-carlo" | "harmonic-solve"
    truncation: int        # step budget (MC) or box radius (solve)
    std_err: float | None = None
    bracket: tuple[float, float] | None = None
    n_walks: int | None = None


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# draws of a few unit steps are ~10ns each while any binomial-family call
# pays ~1us/row in parameter setup, so short blocks are cheaper done raw
_RAW_BLOCK_CUTOFF = 96


def _advance_raw(pos, rows, ks, d, rng):
    """Advance pos[rows] by ks[i] raw uniform unit steps each (in place)."""
    dirs = rng.integers(0, 2 * d, int(ks.sum()), dtype=np.int8)
    offsets = np.zeros(len(ks), dtype=np.int64)
    np.cumsum(ks[:-1], out=offsets[1:])
    for ax in range(d):
        sgn = (dirs == 2 * ax).view(np.int8) - (dirs == 2 * ax + 1).view(np.int8)
        pos[rows, ax] += np.add.reduceat(sgn, offsets)


def _mc_chunk(d: int, n: int, max_steps: int, rng: np.random.Generator) -> int:
    """Count origin hits among n walks from e1 within max_steps steps.

    Walks advance in blocks of k = (current l1-distance) steps; the only
    step inside such a block at which the origin can be visited is the
    last one, so checking block endpoints is exact.  Walks whose
    remaining budget is smaller than their distance are retired early.
    Short blocks are sampled as raw unit steps, long ones as a single
    multinomial endpoint draw; both are the exact k-step law.
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
        if n_hit:
            hits += n_hit
        if n_hit or infeasible.any():
            keep = ~at_origin & ~infeasible
            pos = pos[keep]
            remaining = remaining[keep]
            dist = dist[keep]
            if not pos.shape[0]:
                break
        small = dist <= _RAW_BLOCK_CUTOFF
        if small.all():
            _advance_raw(pos, slice(None), dist, d, rng)
        elif small.any():
            rows = np.flatnonzero(small)
            _advance_raw(pos, rows, dist[rows], d, rng)
            big = np.flatnonzero(~small)
            counts = rng.multinomial(dist[big], probs)
            pos[big] += counts[:, 0::2] - counts[:, 1::2]
        else:
            counts = rng.multinomial(dist, probs)
            pos += counts[:, 0::2]
            pos -= counts[:, 1::2]
        remaining -= dist
    return hits


@functools.lru_cache(maxsize=32)
def hitting_mc(
    d: int,
    n_walks: int = 1_000_000,
    max_steps: int = 10_000,
    seed: int = 0,
    chunk_size: int = 200_000,
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
        m = min(chunk_size, n_walks - done)
        rng = np_substream(seed, "hitting-mc", d, chunk)
        hits += _mc_chunk(d, m, max_steps, rng)
        done += m
        chunk += 1
    h = hits / n_walks
    std_err = math.sqrt(h * (1.0 - h) / n_walks)
    return HittingEstimate(
        h=h,
        method="monte-carlo",
        truncation=max_steps,
        std_err=std_err,
        n_walks=n_walks,
    )


# ---------------------------------------------------------------------------
# Dirichlet solve
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _cached_solve(d: int, radius: int, tol: float, max_sweeps: int):
    """Solve h = average of neighbors, h(O)=1, h=0 at sup-norm >= radius.

    Returns (classes, h) with h indexed like canonical_classes(d, radius-1).
    Treat both as read-only: results are cached and shared.

    Red-black Gauss-Seidel: canonical classes split by coordinate-sum
    parity (every lattice step flips it), so each half-sweep is one
    vectorized gather, indexed once per colour.  Stops on the equation
    residual, not the iterate change — the latter can go quiet while the
    solution is still ~40x further away.
    """
    if d < 1 or radius < 2:
        raise UsageError(f"need d >= 1 and radius >= 2, got d={d}, radius={radius}")
    classes, index, nbr = class_neighbor_table(d, radius - 1)
    n = len(classes)
    o = index[origin(d)]
    # slot n is the absorbed exterior, fixed at 0
    nbr_idx = np.where(nbr < 0, n, nbr)
    h = np.zeros(n + 1)
    h[o] = 1.0
    parity = np.asarray(classes, dtype=np.int64).reshape(n, d).sum(axis=1) % 2
    parity[o] = -1  # the pinned origin joins neither colour
    colors = [np.flatnonzero(parity == p) for p in (0, 1)]
    gathers = [(rows, nbr_idx[rows]) for rows in colors if rows.size]
    inv_deg = 1.0 / (2 * d)

    def residual() -> float:
        avg = h[nbr_idx].sum(axis=1) * inv_deg
        avg[o] = 1.0
        return float(np.abs(h[:n] - avg).max())

    for sweep in range(1, max_sweeps + 1):
        delta = 0.0
        for rows, cols in gathers:
            new = h[cols].sum(axis=1) * inv_deg
            step = float(np.abs(new - h[rows]).max())
            if step > delta:
                delta = step
            h[rows] = new
        if delta < tol and residual() < tol:
            break
    else:
        raise NumericalError(
            f"harmonic solve stalled: d={d} radius={radius}, "
            f"residual {residual():.3e} after {max_sweeps} sweeps (tol {tol:.1e})"
        )
    return classes, h[:n].copy()


def _absorbing_solve(d: int, radius: int, tol: float = 1e-10, max_sweeps: int = 100_000):
    """_cached_solve with one cache entry however the arguments are spelled."""
    return _cached_solve(d, radius, tol, max_sweeps)


_absorbing_solve.cache_info = _cached_solve.cache_info
_absorbing_solve.cache_clear = _cached_solve.cache_clear


def hitting_harmonic(
    d: int,
    radius: int,
    tol: float = 1e-10,
    max_sweeps: int = 100_000,
) -> tuple[dict[tuple[int, ...], float], HittingEstimate]:
    """Dirichlet-problem estimate of the hitting probability, with bracket.

    Returns (class_values, estimate): class_values maps each canonical
    class with sup-norm <= radius-1 to its absorbing-boundary h.  The
    estimate's h is the absorbing value at e1 — a rigorous lower bound
    for the infinite lattice — and bracket = (h_R, h_R + 2*(h_R - h_{R//2}))
    clamped to [0, 1].
    """
    classes, h = _absorbing_solve(d, radius, tol, max_sweeps)
    values = dict(zip(classes, h.tolist()))
    e1 = unit_vector(d)
    lower = values[e1]
    if radius // 2 >= 2:
        half_classes, h_half = _absorbing_solve(d, radius // 2, tol, max_sweeps)
        h_half_e1 = h_half[half_classes.index(e1)]
        upper = min(1.0, lower + 2.0 * max(0.0, lower - h_half_e1))
    else:
        upper = 1.0
    estimate = HittingEstimate(
        h=lower,
        method="harmonic-solve",
        truncation=radius,
        bracket=(lower, upper),
    )
    return values, estimate


# ---------------------------------------------------------------------------
# Dimension sweeps
# ---------------------------------------------------------------------------

def kesten_check(
    dims: list[int],
    n_walks: int = 1_000_000,
    max_steps: int = 10_000,
    seed: int = 0,
) -> list[tuple[int, float, float, float]]:
    """Tabulate (d, h, 2*d*h, std_err) across dimensions and sanity-check.

    Asserts that 2*d*h lies in (0.85, 1.15) for every d >= 8 in the sweep
    and that h decreases with d (beyond joint 3-sigma noise).  Violations
    raise InvariantViolation listing the offending rows; the table is
    attached to the exception as .rows so callers can still report it.
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
    if problems:
        err = InvariantViolation("; ".join(problems))
        err.rows = rows
        raise err
    return rows


def stationary_offset(lam: float, hitting: float) -> float:
    """Constant offset b = (lam - 1 - 2*lam*H) / (lam + 1).

    Added to the hitting function it yields the stationary vector of the
    pair-correlation generator; the pair-correlation machinery is only
    informative when this is positive, i.e. when H < (lam-1)/(2*lam).
    """
    if lam <= 0:
        raise UsageError(f"infection rate must be positive, got {lam}")
    return (lam - 1.0 - 2.0 * lam * hitting) / (lam + 1.0)
