"""Deterministic seed derivation and counter-based uniform streams.

Every random quantity in this package is derived from explicit integer keys,
never from shared mutable RNG state, so that any piece of a simulation (a
single lattice cell of the obstacle field, a single replicate of a campaign)
can be regenerated in isolation and results do not depend on the order in
which work happens to be scheduled.

Two primitives are provided:

* ``derive_seed(*parts)``: a stable 63-bit seed from arbitrary labels,
  backed by SHA-256.  Used for per-run / per-environment / per-path seeds.
* splitmix64-style counter hashing (``stream_u64`` and the vectorised
  ``stream_u64_array``): cheap stateless uniforms keyed by (key, counter).
  Used for the lazily generated obstacle field, where scalar and bulk
  realisation must produce bit-identical points.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary hashable labels.

    The labels are stringified, so ``derive_seed(7, "run", 3)`` is
    reproducible across processes and platforms.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def stream_u64(key: int, counter: int) -> int:
    """The ``counter``-th 64-bit word of the stream named ``key``."""
    return _finalize((key + (counter + 1) * _GOLDEN) & _MASK64)


def cell_key(seed: int, cell: tuple) -> int:
    """Key for one lattice cell, folded from the seed and cell coordinates."""
    k = _finalize((seed ^ 0x5851F42D4C957F2D) & _MASK64)
    for c in cell:
        k = _finalize((k ^ ((c & _MASK64) * _GOLDEN & _MASK64)) & _MASK64)
    return k


def u01(word: int) -> float:
    """Map a 64-bit word to a double in [0, 1)."""
    return (word >> 11) * 2.0**-53


# Vectorised twins of the scalar functions above.  They must produce
# bit-identical values; test_environment checks this.

def _finalize_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def stream_u64_array(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    keys = keys.astype(np.uint64, copy=False)
    counters = counters.astype(np.uint64, copy=False)
    return _finalize_array(keys + (counters + np.uint64(1)) * np.uint64(_GOLDEN))


def cell_key_array(seed, cells: np.ndarray) -> np.ndarray:
    """Vectorised ``cell_key`` for an (n, d) integer array of cells.

    ``seed`` is one seed for every cell, or an array of n seeds, one per
    cell, so that the cells of several fields are keyed in one pass.
    """
    cells = np.asarray(cells)
    if cells.ndim == 1:
        cells = cells[:, None]
    if np.ndim(seed):
        k = _finalize_array(np.asarray(seed, dtype=np.uint64) ^ np.uint64(0x5851F42D4C957F2D))
    else:
        k = np.full(cells.shape[0], _finalize((seed ^ 0x5851F42D4C957F2D) & _MASK64), dtype=np.uint64)
    for q in range(cells.shape[1]):
        c = cells[:, q].astype(np.int64).view(np.uint64)
        k = _finalize_array(k ^ (c * np.uint64(_GOLDEN)))
    return k


def u01_array(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
