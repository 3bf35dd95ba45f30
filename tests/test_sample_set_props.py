"""Property tests for SampleSet, the state the contact kernel and the tests'
reference_trial mutate, with the deletion the kernel inlines."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from test_contact import DiscardSet

# (add?, vertex) operations on a small vertex pool, so discards often hit
_OPS = st.lists(
    st.tuples(st.booleans(), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(initial=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3))), ops=_OPS,
       seed=st.integers(0, 2**32 - 1))
def test_sample_set_matches_reference_set(initial, ops, seed):
    s = DiscardSet(initial)
    ref = set(initial)
    rng = random.Random(seed)
    for add, v in ops:
        if add:
            s.add(v)
            ref.add(v)
        else:
            s.discard(v)
            ref.discard(v)
        assert len(s) == len(ref) and set(s) == ref
        assert all((v in s) == (v in ref) for _, v in ops)
        # the index map points at each item's own slot, and nothing else
        assert len(s._pos) == len(s.items)
        assert all(s.items[i] == u for u, i in s._pos.items())
        if ref:
            assert s.items[rng.randrange(len(s))] in ref
