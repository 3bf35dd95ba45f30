"""Splittable random substreams.

Every stochastic routine takes a master seed plus a structured path
(e.g. ("survival", cell_index, trial_index)) and derives an independent
substream by hashing the pair.  Substream identity depends only on the
path, never on scheduling order, so results are bit-for-bit reproducible
at any worker count.  The digest is SHA-256 from the interpreter's
built-in module, as random.py takes its SHA-512: hashlib would load
OpenSSL's libcrypto, about 3 MB of RSS, for the same bytes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    import numpy as np


def stream_key(seed: int, *path: int | str) -> int:
    """256-bit integer key derived from (seed, path) by SHA-256."""
    text = repr(int(seed)) + "".join("/" + repr(p) for p in path)
    return int.from_bytes(sha256(text.encode("ascii")).digest(), "big")


def substream(seed: int, *path: int | str) -> random.Random:
    """stdlib generator for scalar event loops (fast per-call)."""
    return random.Random(stream_key(seed, *path))


def np_substream(seed: int, *path: int | str) -> np.random.Generator:
    """numpy generator for vectorized sampling."""
    import numpy as np

    return np.random.default_rng(stream_key(seed, *path))
