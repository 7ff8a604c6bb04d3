"""Bidders (DSPs) and their interest-conditioned bid models.

Each bidder draws bids from a lognormal whose parameters depend on what
it knows about the user:

* **no interest signal** → the vanilla (baseline) distribution;
* **interest signal present** → the persona's calibrated distribution.

The signal is available only after the persona has interacted with
skills, and only probabilistically per auction: with probability
``q = INFORMED_FRACTION[persona]`` for Amazon's cookie-sync partners and
``q * NON_PARTNER_SIGNAL_FACTOR`` for non-partners (§5.5 / Table 10).
Web-control personas carry conventional web-tracking history instead,
visible to partners and non-partners alike.

A seasonal multiplier (``holiday_factor``) scales every bid, producing
the pre-Christmas inflation of Table 6 / Figure 3a.
"""

from __future__ import annotations

import _random
import datetime as _dt
import random
from dataclasses import dataclass
from repro.data import categories as cat
from repro.data.calibration import (
    INFORMED_FRACTION,
    NON_PARTNER_SIGNAL_FACTOR,
    bid_params,
    holiday_factor,
)
from repro.util.rng import Seed, derive_seed_int

__all__ = ["Bidder", "AuctionContext", "WEB_SIGNAL_FRACTION"]

#: Probability any bidder holds a *web* persona's browsing signal —
#: standard web tracking, not gated on Amazon partnership (§5.6).
WEB_SIGNAL_FRACTION = 0.90

#: The C seeding under :meth:`random.Random.seed` (its base class's method).
_seed_mt = _random.Random.seed


@dataclass(frozen=True, slots=True)
class AuctionContext:
    """Everything a bid depends on for one (slot, user, time) auction."""

    persona: str
    interacted: bool
    when: _dt.datetime
    slot_id: str
    iteration: int


class Bidder:
    """One demand-side platform."""

    def __init__(
        self,
        code: str,
        domain: str,
        is_partner: bool,
        seed: Seed,
    ) -> None:
        self.code = code
        self.domain = domain
        self.is_partner = is_partner
        self._seed = seed
        #: One generator, reseeded per bid: the same seed integer puts
        #: MT19937 in the same state a fresh ``seed.rng(...)`` would.
        self._rng = random.Random()

    def __repr__(self) -> str:
        kind = "partner" if self.is_partner else "non-partner"
        return f"Bidder({self.code}, {kind})"

    def compute_bid(self, context: AuctionContext) -> float:
        """CPM bid for this auction (deterministic per seed+context)."""
        rng = self._rng
        # What ``rng.seed(n)`` does for an int ``n``, without its Python
        # type dispatch: the same MT19937 state and no cached gauss draw.
        _seed_mt(
            rng,
            derive_seed_int(
                self._seed.root,
                ("bid", self.code, context.persona, context.iteration, context.slot_id),
            ),
        )
        rng.gauss_next = None
        params = self._params_for(context, rng)
        cpm = rng.lognormvariate(params.mu, params.sigma)
        return round(cpm * holiday_factor(context.when), 4)

    def _params_for(self, context, rng):
        # Replicated personas ("fashion-and-style-r2") share their base
        # category's calibration; the bid rng stays keyed by the full
        # name, so replicas draw independently from the same model.
        persona = cat.base_category(context.persona)
        if persona == cat.VANILLA or not context.interacted:
            return bid_params(cat.VANILLA)
        if persona in cat.WEB_CATEGORIES:
            if rng.random() < WEB_SIGNAL_FRACTION:
                return bid_params(persona)
            return bid_params(cat.VANILLA)
        q = INFORMED_FRACTION[persona]
        if not self.is_partner:
            q *= NON_PARTNER_SIGNAL_FACTOR
        if rng.random() < q:
            return bid_params(persona)
        return bid_params(cat.VANILLA)
