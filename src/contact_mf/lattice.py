"""Geometry of Z^d and its periodic quotients.

Vertices are plain tuples of ints carrying their own dimension (only the
contact event loop codes them as ints, inside its body), so one process
can run simulations at several d simultaneously.  A `Torus` wraps
coordinates modulo its side; `geometry=None` means the infinite lattice.

Hyperoctahedrally-symmetric functions (hitting probabilities,
pair-correlation fields) are stored per canonical class: the
nonincreasing sequence of absolute coordinate values, one representative
per symmetry orbit.  `class_neighbor_table` builds the reduced state
space and its adjacency once per process; the cached table is read-only.

numpy is imported only inside the functions that build arrays.
`flat_neighbors`, the torus table the event kernels read, is pure Python
on purpose, so the torus commands (`duality`, `bcpp-check`) never load
numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING

from .errors import UsageError

if TYPE_CHECKING:
    import numpy as np

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

    def translation(self, u: Vertex) -> np.ndarray:
        """(volume,) array: entry i is the flat index of vertex i + u."""
        if len(u) != self.dimension:
            raise UsageError(f"offset {u} does not have dimension {self.dimension}")
        import numpy as np

        ids = np.arange(self.volume, dtype=np.int64).reshape((self.side,) * self.dimension)
        return np.roll(ids, [-c for c in u], axis=tuple(range(self.dimension))).ravel()


@functools.lru_cache(maxsize=8)
def flat_neighbors(torus: Torus) -> tuple[int, ...]:
    """Entry x*2d + k is neighbor k of flat vertex x, +axis then -axis per
    axis: the flat-index table that spares the kernels tuple arithmetic.
    Cached, shared, read-only.  Pure Python (see the module docstring), it
    takes about twice as long to build as with numpy: 0.7 s against 0.4 s
    for the 10^6 sites of Torus(3, 100) on a 2-core host, once per process."""
    d, side, n = torus.dimension, torus.side, torus.volume
    table = [0] * (2 * d * n)
    for axis in range(d):
        stride = side ** (d - 1 - axis)
        block = side * stride   # a run of flat indices that this axis wraps within
        # a +axis step moves offset j of a block to (j + stride) % block
        for k, shift in enumerate((stride, block - stride)):
            offsets = [*range(shift, block), *range(shift)]
            table[2 * axis + k::2 * d] = [b + j for b in range(0, n, block) for j in offsets]
    return tuple(table)


def origin(d: int) -> Vertex:
    return (0,) * d


def unit_vector(d: int, axis: int = 0) -> Vertex:
    if not 0 <= axis < d:
        raise UsageError(f"axis {axis} out of range for dimension {d}")
    return tuple(1 if i == axis else 0 for i in range(d))


def check_dimension(v: Vertex, d: int) -> None:
    if len(v) != d:
        raise UsageError(f"vertex {v} has dimension {len(v)}, expected {d}")


def canonicalize(v: Vertex) -> Vertex:
    """Orbit representative under coordinate permutations and sign flips:
    absolute values sorted nonincreasing."""
    return tuple(sorted((abs(c) for c in v), reverse=True))


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
    import numpy as np

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


def class_orbit_sizes(classes: list[Vertex]) -> np.ndarray:
    """Orbit size of each canonical class, d! * 2^(nonzero entries) /
    prod(run length)!.  The class walk operator is self-adjoint in the
    inner product sum_c w_c x_c y_c: w_c times the rate from c to c'
    counts the lattice edges between the two orbits."""
    import numpy as np

    reps = np.asarray(classes, dtype=np.int64).reshape(len(classes), -1)
    d = reps.shape[1]
    # position within its run of equal entries; the product over a row is
    # prod(run length)!, because canonical classes are sorted
    place = np.ones_like(reps)
    for j in range(1, d):
        place[:, j] = np.where(reps[:, j] == reps[:, j - 1], place[:, j - 1] + 1, 1)
    nonzero = (reps > 0).sum(axis=1)
    return math.factorial(d) * np.exp2(nonzero) / place.prod(axis=1, dtype=np.float64)
