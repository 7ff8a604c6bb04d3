"""Deterministic random-stream derivation.

The whole simulation is reproducible from a single integer seed.  Rather
than threading one shared ``random.Random`` through every component (which
makes results depend on call order), each component derives an *independent*
substream keyed by a human-readable path, e.g.::

    seed = Seed(42)
    rng = seed.rng("adtech", "auction", "fashion-and-style", 17)

Two substreams with different paths are statistically independent; the same
path always yields the same stream.  This is the property that lets a bid
auction in iteration 17 produce identical bids whether or not the audio-ad
experiment ran first.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Dict, Iterable, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Seed", "StreamFamily", "derive_seed_int"]

_PATH_SEPARATOR = "\x1f"  # unit separator: cannot collide with str(part)


def derive_seed_int(root: int, parts: Iterable[object]) -> int:
    """Derive a 64-bit integer seed from a root seed and a key path.

    The derivation is a SHA-256 over the root and the stringified parts,
    which makes it stable across Python versions and platforms (unlike
    ``hash()``, which is salted per process).
    """
    material = _PATH_SEPARATOR.join([str(root), *[str(p) for p in parts]])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Seed:
    """Root of the deterministic randomness tree.

    Parameters
    ----------
    root:
        Any integer.  The same root reproduces the entire simulation.
    """

    def __init__(self, root: int = 0) -> None:
        if not isinstance(root, int):
            raise TypeError(f"seed root must be an int, got {type(root).__name__}")
        self.root = root

    def derive(self, *parts: object) -> "Seed":
        """Return a child :class:`Seed` namespaced by ``parts``."""
        return Seed(derive_seed_int(self.root, parts))

    def rng(self, *parts: object) -> random.Random:
        """Return a ``random.Random`` for the substream named by ``parts``."""
        return random.Random(derive_seed_int(self.root, parts))

    def numpy_rng(self, *parts: object) -> np.random.Generator:
        """Return a NumPy ``Generator`` for the substream named by ``parts``
        (NumPy is imported here, never by ``import repro``)."""
        import numpy as np

        return np.random.default_rng(derive_seed_int(self.root, parts))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Seed) and other.root == self.root

    def __hash__(self) -> int:
        return hash(("repro.Seed", self.root))

    def __repr__(self) -> str:
        return f"Seed({self.root})"


class StreamFamily:
    """Lazily-derived sequential substreams, one per actor key.

    A component serving many actors (the cloud ASR serving every device,
    a skill backend serving several accounts) must not draw from one
    shared sequential stream: which draws an actor sees would then depend
    on which *other* actors are present and in what order they call in.
    A ``StreamFamily`` gives each actor key its own deterministic stream,
    making per-actor results invariant to co-resident actors — the
    property the persona-sharded parallel runner relies on to merge
    shard artifacts back into the serial result.
    """

    def __init__(self, seed: Seed, *namespace: object) -> None:
        self._seed = seed
        self._namespace = tuple(namespace)
        self._streams: Dict[Tuple[str, ...], random.Random] = {}

    def stream(self, *key: object) -> random.Random:
        """The sequential stream for ``key``, created on first use."""
        parts = tuple(map(str, key))
        stream = self._streams.get(parts)
        if stream is None:
            stream = self._seed.rng(*self._namespace, *parts)
            self._streams[parts] = stream
        return stream
