"""Shared utilities: deterministic RNG derivation, simulated clock, identifiers.

Everything in :mod:`repro` is deterministic given a root seed.  Components
never call :func:`random.random` or read the wall clock; instead they derive
named substreams from a :class:`~repro.util.rng.Seed` and read time from a
:class:`~repro.util.clock.SimClock`.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "Seed": "rng",
        "SimClock": "clock",
        "IdFactory": "ids",
        "stable_hash": "ids",
    },
)
