"""Named, reproducible random streams.

Every stochastic routine in the package draws from a Philox (4x64, 10 rounds)
counter-based generator keyed by a stream identity ``(seed, tag, *indices)``:
``seed`` is the user-facing 64-bit seed, ``tag`` is a short string naming the
purpose of the stream (e.g. ``"eqc/theta"``), and the optional integer indices
pick a condition or replicate. Identities are mapped onto independent Philox
keys through ``numpy.random.SeedSequence`` with the tag hashed into the spawn
key, so any piece of output can be regenerated in isolation and distinct
purposes never share a stream even under the same seed.

Bit-stream identity across package versions is guaranteed only while
``STREAM_SCHEME`` is unchanged; the scheme name is echoed into every
reproducibility block.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ParameterError

# Algorithm names recorded in output documents.
GENERATOR = "philox4x64-10"
STREAM_SCHEME = "sha256-tag/seedseq-v1"

_MAX_SEED = 2**64 - 1


def _tag_code(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed <= _MAX_SEED:
        raise ParameterError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def _seed_sequence(seed: int, tag: str, indices) -> np.random.SeedSequence:
    seed = _check_seed(seed)
    key = (_tag_code(tag),) + tuple(int(i) for i in indices)
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def stream(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Return the generator for stream identity ``(seed, tag, *indices)``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, tag, indices)))


def child_seed(seed: int, tag: str, *indices: int) -> int:
    """Derive a scalar 64-bit seed from a stream identity.

    Used where a sub-configuration carries its own ``seed`` field (pool
    generation inside a calibration, per-replicate dataset seeds, ...).
    """
    return int(_seed_sequence(seed, tag, indices).generate_state(1, np.uint64)[0])
