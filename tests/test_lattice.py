"""Geometry: torus neighbor tables, symmetry classes and their adjacency."""

import itertools
import math
import random

import numpy as np
import pytest

from contact_mf.errors import UsageError
from contact_mf.lattice import (
    Torus,
    canonicalize,
    check_dimension,
    class_neighbor_table,
    class_orbit_sizes,
    flat_neighbors,
    origin,
    unit_vector,
)


def test_neighbors_wrap_on_torus():
    # vertex 3 of the 4-cycle: +1 wraps to 0, -1 is 2
    assert flat_neighbors(Torus(1, 4))[6:8] == (0, 2)


def test_check_dimension_mismatch():
    check_dimension((1, 2), 2)
    with pytest.raises(UsageError):
        check_dimension((1, 2, 3), 2)


@pytest.mark.parametrize("side", [3, 2, 5, -4])
def test_torus_rejects_bad_sides(side):
    with pytest.raises(UsageError):
        Torus(2, side)


def test_torus_index_vertex_roundtrip():
    t = Torus(3, 6)
    for idx in random.Random(0).sample(range(t.volume), 40):
        assert t.index(t.vertex(idx)) == idx
    assert t.index((0, 0, 7)) == t.index((0, 0, 1))


def test_neighbor_index_table_matches_tuple_neighbors():
    t = Torus(2, 4)
    flat = flat_neighbors(t)
    for i in range(t.volume):
        v = t.vertex(i)
        # the 2d tuple neighbours, +axis then -axis per axis; index() wraps
        expected = [v[:a] + (c + s,) + v[a + 1:] for a, c in enumerate(v) for s in (1, -1)]
        assert list(flat[4 * i:4 * i + 4]) == [t.index(u) for u in expected]


@pytest.mark.parametrize("d, side", [(2, 8), (3, 4), (1, 6)])
def test_flat_neighbors_is_the_cached_flat_table(d, side):
    t = Torus(d, side)
    flat = flat_neighbors(t)
    assert flat_neighbors(Torus(d, side)) is flat
    assert isinstance(flat, tuple)
    assert len(flat) == t.volume * 2 * d
    assert all(type(x) is int for x in flat)


def test_canonicalize_examples():
    assert canonicalize((0, 0, 0)) == (0, 0, 0)
    assert canonicalize((-1, 0, 2)) == (2, 1, 0)
    assert canonicalize((1, 0, 0)) == canonicalize((0, -1, 0)) == (1, 0, 0)


def test_canonicalize_is_orbit_invariant():
    rng = random.Random(1)
    for _ in range(50):
        v = tuple(rng.randint(-3, 3) for _ in range(4))
        permuted = tuple(v[i] for i in rng.sample(range(4), 4))
        flipped = tuple(c * rng.choice((-1, 1)) for c in permuted)
        assert canonicalize(flipped) == canonicalize(v)


def test_canonical_class_count():
    # nonincreasing tuples from {0..m}^d: C(m+d, d)
    for d, m in [(2, 3), (3, 5), (4, 2)]:
        assert len(class_neighbor_table(d, m)[0]) == math.comb(m + d, d)


def test_class_neighbor_table_multiplicity():
    classes, index, nbr = class_neighbor_table(2, 4)
    assert nbr.shape == (len(classes), 4)
    # class (1,1): each axis step lands on (2,1) or the axis class (1,0)
    row = nbr[index[(1, 1)]]
    reached = sorted(classes[j] for j in row)
    assert reached == [(1, 0), (1, 0), (2, 1), (2, 1)]
    # overflow past the max coordinate is marked, never mis-indexed
    row_edge = nbr[index[(4, 0)]]
    assert (row_edge == -1).sum() == 1
    for j, cls in zip(row_edge, [(5, 0), (3, 0), (4, 1), (4, 1)]):
        if j >= 0:
            assert classes[j] == cls


def _reference_class_table(d, m):
    """The plain nested-loop construction the vectorized table must match."""
    classes = sorted(
        tuple(reversed(combo))
        for combo in itertools.combinations_with_replacement(range(m + 1), d)
    )
    index = {c: i for i, c in enumerate(classes)}
    nbr = np.empty((len(classes), 2 * d), dtype=np.int64)
    for i, rep in enumerate(classes):
        for ax in range(d):
            for col, sign in ((2 * ax, 1), (2 * ax + 1, -1)):
                moved = canonicalize(rep[:ax] + (rep[ax] + sign,) + rep[ax + 1 :])
                nbr[i, col] = index.get(moved, -1)
    return classes, index, nbr


@pytest.mark.parametrize(
    "d, m",
    # from (40, 1) on, radix**d >= 2**63 and the table keys on Python ints
    [(1, 0), (1, 1), (1, 6), (2, 0), (2, 1), (2, 5), (3, 4), (4, 3), (6, 9), (40, 1), (32, 2),
     (64, 1)],
)
def test_class_neighbor_table_matches_nested_loop_reference(d, m):
    classes, index, nbr = class_neighbor_table(d, m)
    ref_classes, ref_index, ref_nbr = _reference_class_table(d, m)
    assert classes == ref_classes
    assert index == ref_index
    assert nbr.dtype == ref_nbr.dtype
    assert np.array_equal(nbr, ref_nbr)


@pytest.mark.parametrize("d, radius", [(1, 5), (2, 4), (3, 6), (4, 5), (6, 10)])
def test_orbit_sizes_sum_to_the_box_volume(d, radius):
    classes = class_neighbor_table(d, radius - 1)[0]
    assert class_orbit_sizes(classes).sum() == (2 * radius - 1) ** d


@pytest.mark.parametrize("d, m", [(2, 3), (3, 2), (4, 2)])
def test_orbit_sizes_count_the_box_vertices_of_each_class(d, m):
    counts = {}
    for v in itertools.product(range(-m, m + 1), repeat=d):
        counts[canonicalize(v)] = counts.get(canonicalize(v), 0) + 1
    classes = class_neighbor_table(d, m)[0]
    assert class_orbit_sizes(classes).tolist() == [counts[c] for c in classes]


def test_class_neighbor_table_is_cached_and_read_only():
    first = class_neighbor_table(3, 4)
    assert class_neighbor_table(3, 4) is first
    with pytest.raises(ValueError):
        first[2][0, 0] = 0


@pytest.mark.parametrize("d, side", [(2, 8), (3, 4), (1, 6), (4, 4), (2, 10)])
def test_neighbor_index_table_matches_loop_reference(d, side):
    t = Torus(d, side)
    ref = np.empty((t.volume, 2 * d), dtype=np.int64)
    for i in range(t.volume):
        v = t.vertex(i)
        for ax in range(d):
            for col, sign in ((2 * ax, 1), (2 * ax + 1, -1)):
                ref[i, col] = t.index(v[:ax] + (v[ax] + sign,) + v[ax + 1 :])
    assert np.array_equal(np.array(flat_neighbors(t)).reshape(t.volume, 2 * d), ref)


@pytest.mark.parametrize("d, side, offsets", [
    (2, 6, [(0, 0), (1, 0), (0, -1), (2, 3), (-4, 5), (7, -13)]),
    (3, 4, [(0, 0, 0), (1, 0, 0), (0, 0, -1), (1, -2, 3), (5, -4, -9), (-1, -1, -1)]),
])
def test_translation_matches_loop_reference(d, side, offsets):
    t = Torus(d, side)
    for u in offsets:
        ref = np.empty(t.volume, dtype=np.int64)
        for i in range(t.volume):
            v = t.vertex(i)
            ref[i] = t.index(tuple((v[k] + u[k]) % side for k in range(d)))
        perm = t.translation(u)
        assert perm.dtype == ref.dtype
        assert np.array_equal(perm, ref), u
    with pytest.raises(UsageError):
        t.translation((1,) * (d + 1))


def test_class_neighbor_table_row_degree():
    _, _, nbr = class_neighbor_table(3, 3)
    assert np.all((nbr >= -1) & (nbr < nbr.shape[0]))
    assert nbr.shape[1] == 6


def test_unit_vector_and_origin():
    assert origin(4) == (0, 0, 0, 0)
    assert unit_vector(3) == (1, 0, 0)
    assert unit_vector(3, axis=2) == (0, 0, 1)
    with pytest.raises(UsageError):
        unit_vector(3, axis=3)
