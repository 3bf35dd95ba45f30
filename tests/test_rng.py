"""Substream derivation: reproducible, path-keyed, order-independent."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from contact_mf.rng import np_substream, stream_key, substream

ROOT = Path(__file__).resolve().parent.parent

# keys recorded before stream_key took its digest from the built-in module;
# every substream, and so every output, depends on these staying put
PINNED = [
    ((0,), 43388321209941149759420236104888244958223766953174235657296806338137402595305),
    ((7, "trial", 3),
     83378377838966095329109206953779091001079586617445543513750857465462952632082),
    ((2**70, "survival-cell", 1, 2),
     87110868518145142335721901583426624651578246059959723868427300964312052133005),
]


def test_same_path_same_stream():
    a = substream(7, "trial", 3)
    b = substream(7, "trial", 3)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_numpy_same_path_same_stream():
    a = np_substream(7, "chunk", 0).standard_normal(16)
    b = np_substream(7, "chunk", 0).standard_normal(16)
    assert np.array_equal(a, b)


def test_different_paths_differ():
    keys = {
        stream_key(7, "trial", 3),
        stream_key(7, "trial", 4),
        stream_key(7, "chunk", 3),
        stream_key(8, "trial", 3),
        stream_key(7, "trial", 3, 0),
    }
    assert len(keys) == 5


def test_path_components_do_not_collide_by_concatenation():
    # ("ab", 1) and ("a", "b1") must hash differently
    assert stream_key(0, "ab", 1) != stream_key(0, "a", "b1")
    assert stream_key(0, 12, 3) != stream_key(0, 1, 23)


def test_key_is_deterministic_across_processes():
    # SHA-256 of the textual path: no process-local salting anywhere
    assert stream_key(0) == stream_key(0)
    assert isinstance(stream_key(5, "x"), int)


@given(st.integers(-2**80, 2**80),
       st.lists(st.one_of(st.integers(-2**40, 2**40), st.text("abc-_/09", max_size=8)),
                max_size=4))
def test_key_is_the_hashlib_sha256_of_the_path_text(seed, path):
    text = repr(seed) + "".join("/" + repr(p) for p in path)
    digest = hashlib.sha256(text.encode("ascii")).digest()
    assert stream_key(seed, *path) == int.from_bytes(digest, "big")


def test_pinned_keys_do_not_move():
    assert [stream_key(*path) for path, _ in PINNED] == [key for _, key in PINNED]


def test_hashlib_fallback_gives_the_same_keys():
    # with neither built-in module importable, rng falls back to hashlib
    code = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from contact_mf import rng\n"
        f"paths = {[path for path, _ in PINNED]!r}\n"
        "fallback = rng.sha256 is __import__('hashlib').sha256\n"
        "print(json.dumps([fallback, [rng.stream_key(*p) for p in paths]]))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=60)
    fallback, keys = json.loads(done.stdout)
    assert fallback
    assert keys == [key for _, key in PINNED]
