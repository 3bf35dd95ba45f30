"""Property tests for the symmetry reduction the harmonic solves run on."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from contact_mf.lattice import canonicalize, class_neighbor_table


@st.composite
def _vertex_and_symmetry(draw):
    """A vertex of Z^d plus one hyperoctahedral symmetry (axis permutation
    and sign flips)."""
    d = draw(st.integers(1, 6))
    v = tuple(draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d)))
    perm = draw(st.permutations(range(d)))
    flips = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    return v, tuple(-v[p] if f else v[p] for p, f in zip(perm, flips))


@settings(max_examples=300, deadline=None)
@given(_vertex_and_symmetry())
def test_canonicalize_is_idempotent_and_constant_on_orbits(pair):
    v, image = pair
    c = canonicalize(v)
    assert canonicalize(c) == c
    assert canonicalize(image) == c
    assert all(a >= b >= 0 for a, b in zip(c, c[1:] + (0,)))


@st.composite
def _box_vertex(draw):
    d = draw(st.integers(1, 5))
    max_coord = draw(st.integers(1, 4))
    v = tuple(draw(st.lists(st.integers(-max_coord, max_coord), min_size=d, max_size=d)))
    return max_coord, v


@settings(max_examples=300, deadline=None)
@given(_box_vertex())
def test_class_table_row_is_the_canonical_neighbor_multiset(case):
    max_coord, v = case
    classes, index, nbr = class_neighbor_table(len(v), max_coord)
    # the 2d lattice neighbours of v, one unit step along each axis each way
    steps = [v[:a] + (c + s,) + v[a + 1:] for a, c in enumerate(v) for s in (1, -1)]
    expected = Counter(
        -1 if max(map(abs, w)) > max_coord else index[canonicalize(w)] for w in steps
    )
    assert Counter(nbr[index[canonicalize(v)]].tolist()) == expected
