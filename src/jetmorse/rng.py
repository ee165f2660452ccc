"""Counter-based splittable random streams.

Every stochastic routine in this package draws from a stream keyed by
``(seed, *path)`` where the path identifies the logical consumer (a point id,
a sample block, ...).  Streams are backed by the Philox counter-based bit
generator, so two streams with different keys are statistically independent
and a given key always reproduces the same draws, regardless of how many
other streams are consumed concurrently.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream"]


def _derive_key(seed: int, path: tuple) -> int:
    """Fold (seed, path) into a 128-bit Philox key via blake2b."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(seed)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


def stream(seed: int, *path) -> np.random.Generator:
    """Return a fresh deterministic generator keyed by ``(seed, *path)``.

    Identical arguments always yield a generator producing identical draws,
    and paths whose parts differ as text yield independent streams.  Parts
    are keyed by ``str(part)`` joined with ``/``, so paths equal as text
    share one stream: ``stream(s, 1)`` and ``stream(s, "1")``, ``stream(s,
    (1, 2))`` and ``stream(s, "(1, 2)")``, and ``stream(s, "a/b")`` and
    ``stream(s, "a", "b")``.  Safe to call from any number of workers in any
    order.
    """
    return np.random.Generator(np.random.Philox(key=_derive_key(seed, path)))
