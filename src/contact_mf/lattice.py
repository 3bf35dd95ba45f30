"""Geometry of Z^d and its periodic quotients.

Vertices are plain tuples of ints carrying their own dimension, so one
process can run simulations at several d simultaneously.  A `Torus`
wraps coordinates modulo its side; `geometry=None` everywhere means the
infinite lattice.

Hyperoctahedrally-symmetric functions (hitting probabilities,
pair-correlation fields) are stored per canonical class: the
nonincreasing sequence of absolute coordinate values, one representative
per symmetry orbit.  `class_neighbor_table` builds the reduced state
space and its adjacency once per process; the cached table is read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import UsageError

Vertex = tuple[int, ...]


@dataclass(frozen=True)
class Torus:
    """Periodic box (Z/LZ)^d. Side must be even and >= 4 so that the origin
    and the first unit vector are never identified under wrap."""

    dimension: int
    side: int

    def __post_init__(self):
        if self.dimension < 1:
            raise UsageError(f"torus dimension must be >= 1, got {self.dimension}")
        if self.side < 4 or self.side % 2 != 0:
            raise UsageError(f"torus side must be even and >= 4, got {self.side}")

    @property
    def volume(self) -> int:
        return self.side**self.dimension

    def wrap(self, v: Vertex) -> Vertex:
        return tuple(c % self.side for c in v)

    def index(self, v: Vertex) -> int:
        """Flat row-major index of a (wrapped) vertex."""
        idx = 0
        for c in v:
            idx = idx * self.side + (c % self.side)
        return idx

    def vertex(self, idx: int) -> Vertex:
        coords = []
        for _ in range(self.dimension):
            coords.append(idx % self.side)
            idx //= self.side
        return tuple(reversed(coords))

    def neighbor_index_table(self) -> np.ndarray:
        """(volume, 2d) array: row i lists the flat indices of vertex i's
        neighbors (+axis then -axis per dimension). Used by flat-array
        simulations (bcpp) to avoid tuple arithmetic in hot loops."""
        ids = np.arange(self.volume, dtype=np.int64).reshape((self.side,) * self.dimension)
        cols = [
            np.roll(ids, shift, axis=ax).ravel()
            for ax in range(self.dimension)
            for shift in (-1, 1)
        ]
        return np.stack(cols, axis=1)


def origin(d: int) -> Vertex:
    return (0,) * d


def unit_vector(d: int, axis: int = 0) -> Vertex:
    if not 0 <= axis < d:
        raise UsageError(f"axis {axis} out of range for dimension {d}")
    return tuple(1 if i == axis else 0 for i in range(d))


def check_dimension(v: Vertex, d: int) -> None:
    if len(v) != d:
        raise UsageError(f"vertex {v} has dimension {len(v)}, expected {d}")


def neighbors(v: Vertex, geometry: Torus | None = None) -> list[Vertex]:
    """The 2d lattice neighbors of v (wrapped on a torus)."""
    if geometry is not None:
        check_dimension(v, geometry.dimension)
        L = geometry.side
        out = []
        for i, c in enumerate(v):
            out.append(v[:i] + ((c + 1) % L,) + v[i + 1 :])
            out.append(v[:i] + ((c - 1) % L,) + v[i + 1 :])
        return out
    out = []
    for i, c in enumerate(v):
        out.append(v[:i] + (c + 1,) + v[i + 1 :])
        out.append(v[:i] + (c - 1,) + v[i + 1 :])
    return out


def random_neighbor(v: Vertex, rng, geometry: Torus | None = None) -> Vertex:
    """One uniformly chosen neighbor; O(d) and allocation-light."""
    k = rng.randrange(2 * len(v))
    axis, sign = k >> 1, 1 - 2 * (k & 1)
    c = v[axis] + sign
    if geometry is not None:
        c %= geometry.side
    return v[:axis] + (c,) + v[axis + 1 :]


def canonicalize(v: Vertex) -> Vertex:
    """Orbit representative under coordinate permutations and sign flips:
    absolute values sorted nonincreasing."""
    return tuple(sorted((abs(c) for c in v), reverse=True))


def canonical_classes(d: int, max_coord: int) -> list[Vertex]:
    """All canonical classes with sup-norm <= max_coord, in sorted order."""
    return list(class_neighbor_table(d, max_coord)[0])


@functools.lru_cache(maxsize=16)
def class_neighbor_table(
    d: int, max_coord: int
) -> tuple[list[Vertex], dict[Vertex, int], np.ndarray]:
    """Adjacency of canonical classes with multiplicity.

    Returns (classes, index, nbr) where nbr[i] lists the class indices of
    the 2d lattice neighbors of class i's representative; a class reached
    twice appears twice (that IS its multiplicity for symmetric functions);
    neighbors with sup-norm > max_coord are marked -1.  Cached and shared:
    treat all three as read-only (nbr is flagged so).  Keys are digits in
    radix max_coord + 2, which sort lexicographically and cover moved copies.
    """
    radix = max_coord + 2
    dtype = np.int64 if radix**d < 2**63 else object  # object: exact big keys
    reps = np.array(list(combinations_with_replacement(range(max_coord + 1), d)))[:, ::-1]
    weights = np.array([radix**k for k in range(d - 1, -1, -1)], dtype=dtype)
    keys = reps.astype(dtype) @ weights
    order = np.argsort(keys)
    reps, keys = reps[order], keys[order]
    eye = np.eye(d, dtype=reps.dtype)
    nbr = np.empty((len(reps), 2 * d), dtype=np.int64)
    for col in range(2 * d):
        moved = -np.sort(-np.abs(reps + (1 - 2 * (col & 1)) * eye[col >> 1]), axis=1)
        found = np.searchsorted(keys, moved.astype(dtype) @ weights)
        nbr[:, col] = np.where(moved[:, 0] > max_coord, -1, found)
    nbr.setflags(write=False)
    classes = list(map(tuple, reps.tolist()))
    return classes, {c: i for i, c in enumerate(classes)}, nbr
