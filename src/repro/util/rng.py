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

Components that serve many actors draw through a :class:`StreamFamily`,
one sequential substream per actor key.  A family keeps each key as a
seed and a count of the draws it has taken, not as a generator: at most
:data:`POOL_SIZE` generators are live at a time across every family,
and a key whose generator was dropped rebuilds it from its seed and
skips the draws already taken, so its sequence is unchanged.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from typing import Deque, Dict, Iterable, List, Tuple

__all__ = ["Seed", "StreamFamily", "derive_seed_int"]

_PATH_SEPARATOR = "\x1f"  # unit separator: cannot collide with str(part)

#: Most ``random.Random`` generators live at once across every
#: :class:`StreamFamily` in the process (each keeps 2,560 bytes of
#: MT19937 state).
POOL_SIZE = 128

# Slots whose generator is live, oldest first.  A slot is
# ``[seed int, draws taken, generator or None]``; evicting one only
# clears its generator.
_POOL: Deque[list] = deque()


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

    Key ``k``'s stream is ``seed.rng(*namespace, *map(str, k))``, so
    ``1`` and ``"1"`` name the same stream.  A key costs its seed and a
    draw count: the seed is derived on the key's first draw (a key that
    is never drawn derives nothing), and the generator sits in a
    process-wide FIFO pool of :data:`POOL_SIZE`.  When the pool drops
    it, the key's next draw replays: ``random.Random(seed)`` then one
    ``getrandbits(64 * draws)``, which consumes the same 32-bit MT
    words as ``draws`` calls to ``random()`` (two each).  Only a key's
    owner draws from it; eviction by another thread's family only
    clears the slot, and the owner's next draw replays exactly.
    """

    def __init__(self, seed: Seed, *namespace: object) -> None:
        self._root = seed.root
        self._namespace = tuple(namespace)
        self._slots: Dict[Tuple[str, ...], List] = {}

    def random(self, *key: object) -> float:
        """The next ``random()`` of ``key``'s stream."""
        parts = tuple(map(str, key))
        slot = self._slots.get(parts)
        if slot is None:
            seed = derive_seed_int(self._root, self._namespace + parts)
            slot = self._slots[parts] = [seed, 0, None]
        rng = slot[2]
        if rng is None:
            rng = random.Random(slot[0])
            if slot[1]:
                rng.getrandbits(64 * slot[1])
            # Live before pooled: an eviction can then only clear it.
            slot[2] = rng
            if len(_POOL) >= POOL_SIZE:
                _POOL.popleft()[2] = None
            _POOL.append(slot)
        slot[1] += 1
        return rng.random()
