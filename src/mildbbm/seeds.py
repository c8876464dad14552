"""Deterministic seed derivation and counter-based uniform streams.

Every random quantity in this package is derived from explicit integer keys,
never from shared mutable RNG state, so that any piece of a simulation (a
single lattice cell of the obstacle field, a single replicate of a campaign)
can be regenerated in isolation and results do not depend on the order in
which work happens to be scheduled.

Two primitives are provided:

* ``derive_seed(*parts)``: a stable 63-bit seed from arbitrary labels,
  backed by SHA-256.  Used for per-run / per-environment / per-path seeds.
* splitmix64-style counter hashing (``cell_key_array``, ``stream_u64_array``
  and ``u01_array``): cheap stateless uniforms keyed by (key, counter),
  vectorised over arrays of keys.  It is the one hash of the lazily
  generated obstacle field: every realisation path, a scalar query's tile
  of cells as well as a bulk box, draws its points from it.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SEED_SALT = 0x5851F42D4C957F2D


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary hashable labels.

    The labels are stringified, so ``derive_seed(7, "run", 3)`` is
    reproducible across processes and platforms.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def stream_u64_array(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The ``counters[i]``-th 64-bit word of the stream named ``keys[i]``."""
    keys = keys.astype(np.uint64, copy=False)
    counters = counters.astype(np.uint64, copy=False)
    return _finalize_array(keys + (counters + np.uint64(1)) * np.uint64(_GOLDEN))


def cell_key_array(seed, cells: np.ndarray) -> np.ndarray:
    """Hash keys of an (n, d) integer array of lattice cells, each folded
    from the seed and the cell's coordinates.

    ``seed`` is one seed for every cell, or an array of n seeds, one per
    cell, so that the cells of several fields are keyed in one pass.
    """
    cells = np.asarray(cells)
    if cells.ndim == 1:
        cells = cells[:, None]
    if np.ndim(seed):
        k = np.asarray(seed, dtype=np.uint64) ^ np.uint64(_SEED_SALT)
    else:
        # one salted seed, finalised once and broadcast over the cells
        k = np.full(1, (seed ^ _SEED_SALT) & _MASK64, dtype=np.uint64)
    k = _finalize_array(k)
    for q in range(cells.shape[1]):
        c = cells[:, q].astype(np.int64).view(np.uint64)
        k = _finalize_array(k ^ (c * np.uint64(_GOLDEN)))
    return k


def u01_array(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in [0, 1)."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
