"""Calibration tables for the simulated ad economy.

The simulation's generative parameters are derived from the paper's
reported statistics so that re-measuring the simulated world reproduces
the *shape* of every table and figure:

* **Bid levels** (Tables 5/6, Figures 3/6/7): per-persona lognormal
  parameters derived from the paper's median/mean pairs —
  ``mu = ln(median)``, ``sigma = sqrt(2 ln(mean/median))``.
* **Statistical pattern** (Table 7): an *informed-bidder fraction* per
  persona.  An informed bidder draws from the persona's interest
  distribution; an uninformed one from the vanilla distribution.  The
  rank-biserial correlation of the blend is ``q * r_full`` where
  ``r_full = 2 Phi(delta_mu / sqrt(sig_p^2 + sig_v^2)) - 1``, so ``q`` is
  solved per persona from the paper's effect sizes.  This reproduces the
  six-significant / three-not pattern of Table 7.
* **Holiday effect** (Table 6, Figure 3a): a piecewise-linear seasonal
  multiplier peaking before Christmas 2021.
* **Ad catalogs** (Tables 8/9, Figure 5): Amazon house-ad campaigns with
  persona targeting and audio-ad brand catalogs with per-persona weights.
* **Interest inference** (Table 12): rules mapping skill categories to
  Amazon advertising interests by exposure level.
"""

from __future__ import annotations

import datetime as _dt
import functools
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.data import categories as cat

__all__ = [
    "BidParams",
    "PERSONA_BID_TARGETS",
    "VANILLA_BID_TARGETS",
    "WEB_PERSONA_BID_TARGETS",
    "INFORMED_FRACTION",
    "NON_PARTNER_SIGNAL_FACTOR",
    "bid_params",
    "holiday_factor",
    "holiday_window",
    "N_PARTNERS",
    "N_NON_PARTNERS",
    "N_DOWNSTREAM_THIRD_PARTIES",
    "AMAZON_HOUSE_CAMPAIGNS",
    "VENDOR_CAMPAIGNS",
    "AUDIO_AD_RATE",
    "AUDIO_BRAND_WEIGHTS",
    "PREMIUM_UPSELL_SHARE",
    "INTEREST_RULES",
    "MISSING_INTEREST_FILE_PERSONAS",
]


# --------------------------------------------------------------------- #
# Bid distributions
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class BidParams:
    """Lognormal bid distribution in CPM."""

    mu: float
    sigma: float

    @classmethod
    def from_median_mean(cls, median: float, mean: float) -> "BidParams":
        if median <= 0 or mean < median:
            raise ValueError(
                f"need 0 < median <= mean, got median={median}, mean={mean}"
            )
        return cls(mu=math.log(median), sigma=math.sqrt(2.0 * math.log(mean / median)))

    @property
    def median(self) -> float:
        return math.exp(self.mu)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)


#: Table 5 targets: persona -> (median, mean), bids in CPM, with interaction.
PERSONA_BID_TARGETS: Dict[str, Tuple[float, float]] = {
    cat.CONNECTED_CAR: (0.099, 0.267),
    cat.DATING: (0.099, 0.198),
    cat.FASHION: (0.090, 0.403),
    cat.PETS: (0.156, 0.223),
    cat.RELIGION: (0.120, 0.323),
    cat.SMART_HOME: (0.071, 0.218),
    cat.WINE: (0.065, 0.313),
    cat.HEALTH: (0.057, 0.310),
    cat.NAVIGATION: (0.099, 0.255),
}

VANILLA_BID_TARGETS: Tuple[float, float] = (0.030, 0.153)

#: Web control personas (§5.6): targeted like mid-range Echo personas.
WEB_PERSONA_BID_TARGETS: Dict[str, Tuple[float, float]] = {
    cat.WEB_HEALTH: (0.085, 0.260),
    cat.WEB_SCIENCE: (0.080, 0.250),
    cat.WEB_COMPUTERS: (0.062, 0.220),
}

#: Fraction of bidders holding the persona's interest signal, solved from
#: Table 7 effect sizes (q = r_paper / r_full; see module docstring).
#: The three q's below ~0.75 are what make Smart Home, Wine & Beverages,
#: and Health & Fitness statistically indistinguishable from vanilla.
INFORMED_FRACTION: Dict[str, float] = {
    cat.CONNECTED_CAR: 0.89,
    cat.DATING: 0.86,
    cat.FASHION: 0.94,
    cat.PETS: 0.72,
    cat.RELIGION: 0.78,
    cat.SMART_HOME: 0.73,
    cat.WINE: 0.80,
    cat.HEALTH: 0.71,
    cat.NAVIGATION: 1.00,
}

#: Non-partner advertisers (no cookie sync with Amazon) receive the
#: interest signal far less reliably (§5.5, Table 10).
NON_PARTNER_SIGNAL_FACTOR = 0.45


@functools.lru_cache(maxsize=64)
def bid_params(persona_category: str) -> BidParams:
    """Interest-distribution parameters for a persona category.

    Memoised (the categories are a few dozen at most): every bid asks.
    """
    if persona_category == cat.VANILLA:
        median, mean = VANILLA_BID_TARGETS
    elif persona_category in PERSONA_BID_TARGETS:
        median, mean = PERSONA_BID_TARGETS[persona_category]
    elif persona_category in WEB_PERSONA_BID_TARGETS:
        median, mean = WEB_PERSONA_BID_TARGETS[persona_category]
    else:
        raise KeyError(f"no bid calibration for persona {persona_category}")
    return BidParams.from_median_mean(median, mean)


# --------------------------------------------------------------------- #
# Holiday season (Table 6 / Figure 3a)
# --------------------------------------------------------------------- #

_HOLIDAY_RAMP: Tuple[Tuple[_dt.date, float], ...] = (
    (_dt.date(2021, 12, 5), 1.0),
    (_dt.date(2021, 12, 21), 3.5),
    (_dt.date(2021, 12, 28), 1.5),
    (_dt.date(2022, 1, 3), 1.0),
)


def holiday_window() -> Tuple[_dt.date, _dt.date]:
    """First and last anchor dates of the seasonal ramp.

    The multiplier is 1.0 on and outside both endpoints, so a campaign
    whose day range misses ``[start, end]`` sees flat seasonal pricing.
    The timeline layer uses this to report whether each epoch's shifted
    clock still overlaps the holiday surge.
    """
    return _HOLIDAY_RAMP[0][0], _HOLIDAY_RAMP[-1][0]


def holiday_factor(when: _dt.datetime) -> float:
    """Seasonal bid multiplier: ramps to ~3.5x before Christmas 2021.

    Piecewise linear through the anchor points above; 1.0 outside the
    window.  This is the mechanism behind the paper's observation that
    pre-interaction (holiday) bids were as high as post-interaction ones
    (§5.1, Table 6).
    """
    return _day_factor(when.date())


@functools.lru_cache(maxsize=1024)
def _day_factor(day: _dt.date) -> float:
    """:func:`holiday_factor` for one calendar day, memoised: every bid asks."""
    if day <= _HOLIDAY_RAMP[0][0] or day >= _HOLIDAY_RAMP[-1][0]:
        return 1.0
    for (d0, f0), (d1, f1) in zip(_HOLIDAY_RAMP, _HOLIDAY_RAMP[1:]):
        if d0 <= day <= d1:
            span = (d1 - d0).days
            progress = (day - d0).days / span
            return f0 + (f1 - f0) * progress
    return 1.0


# --------------------------------------------------------------------- #
# Advertiser population (§5.5)
# --------------------------------------------------------------------- #

#: Advertisers that cookie-sync with Amazon.
N_PARTNERS = 41
#: Advertisers that never sync with Amazon.
N_NON_PARTNERS = 19
#: Distinct downstream third parties the partners sync with.
N_DOWNSTREAM_THIRD_PARTIES = 247


# --------------------------------------------------------------------- #
# Display-ad campaigns (Table 8 / §5.3)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class HouseCampaign:
    """An Amazon house ad targeted at one persona (Table 8)."""

    product: str
    target_persona: str
    #: Impressions across the 25 post-interaction iterations.
    impressions: int
    iterations: int
    #: Whether the paper judged the ad relevant to the persona (green rows).
    apparent_relevance: bool
    related_skill: str = ""


AMAZON_HOUSE_CAMPAIGNS: Tuple[HouseCampaign, ...] = (
    HouseCampaign("Dehumidifier", cat.HEALTH, 7, 5, True, "Air Quality Report"),
    HouseCampaign("Essential oils", cat.HEALTH, 1, 1, True, "Essential Oil Benefits"),
    HouseCampaign("Vacuum cleaner", cat.SMART_HOME, 1, 1, True, "Dyson"),
    HouseCampaign("Vacuum cleaner accessories", cat.SMART_HOME, 1, 1, True, "Dyson"),
    HouseCampaign("Eero WiFi router", cat.RELIGION, 12, 8, False),
    HouseCampaign("Kindle", cat.RELIGION, 14, 4, False),
    HouseCampaign("Swarovski", cat.RELIGION, 2, 2, False),
    HouseCampaign("PC files copying/switching software", cat.PETS, 4, 2, False),
)


@dataclass(frozen=True)
class VendorCampaign:
    """A display campaign from a skill vendor (shown across personas)."""

    advertiser: str
    product: str
    #: Persona whose installed skill shares this vendor.
    skill_persona: str
    impressions: int


VENDOR_CAMPAIGNS: Tuple[VendorCampaign, ...] = (
    VendorCampaign("Microsoft", "Surface laptop", cat.SMART_HOME, 60),
    VendorCampaign("SimpliSafe", "Home security system", cat.SMART_HOME, 12),
    VendorCampaign("Samsung", "Galaxy phone", cat.SMART_HOME, 1),
    VendorCampaign("LG", "OLED TV", cat.SMART_HOME, 1),
    VendorCampaign("Ford", "F-150 pickup", cat.CONNECTED_CAR, 3),
    VendorCampaign("Jeep", "Grand Cherokee", cat.CONNECTED_CAR, 2),
)

#: Generic commercial brands filling the rest of the 20,210 ads.
GENERIC_DISPLAY_BRANDS: Tuple[str, ...] = (
    "StreamFlix", "QuickMeal Kits", "CloudBank", "TravelNow", "FitTrack",
    "HomeChef Box", "AutoQuote Insurance", "GreenEnergy Co", "EduPath",
    "PhotoPrint Plus", "SecureVPN", "CoffeeClub", "PetPantry", "BookNook",
    "GameSphere", "SoundWave Audio", "FreshGrocer", "UrbanWear", "SkyMiles Air",
    "MattressDirect",
)


# --------------------------------------------------------------------- #
# Audio ads (Table 9 / Figure 5)
# --------------------------------------------------------------------- #

#: Expected ads per hour of streaming for (skill, persona).  Calibrated so
#: a 6-hour session roughly reproduces Table 9's per-persona ad fractions
#: (n=289 total): Connected Car on Spotify draws ~1/5 the ads of the
#: other personas.
AUDIO_AD_RATE: Dict[str, Dict[str, float]] = {
    "Amazon Music": {
        cat.CONNECTED_CAR: 5.2,
        cat.FASHION: 5.3,
        cat.VANILLA: 5.0,
    },
    "Spotify": {
        cat.CONNECTED_CAR: 1.3,
        cat.FASHION: 7.5,
        cat.VANILLA: 6.0,
    },
    "Pandora": {
        cat.CONNECTED_CAR: 4.7,
        cat.FASHION: 7.8,
        cat.VANILLA: 5.3,
    },
}

#: Share of Amazon Music and Spotify ads that upsell the premium tier.
PREMIUM_UPSELL_SHARE = 0.17

#: Brand weights per (skill, persona).  A weight only for one persona makes
#: the brand exclusive to it — e.g. Ashley/Ross on Spotify and Swiffer Wet
#: Jet on Pandora are Fashion & Style exclusives (Figure 5).
AUDIO_BRAND_WEIGHTS: Dict[str, Dict[str, Dict[str, float]]] = {
    "Amazon Music": {
        "Amazon Music Unlimited": {cat.CONNECTED_CAR: 1.8, cat.FASHION: 1.8, cat.VANILLA: 1.8},
        "Amazon Pharmacy": {cat.CONNECTED_CAR: 2, cat.FASHION: 2, cat.VANILLA: 2},
        "Audible": {cat.CONNECTED_CAR: 2, cat.FASHION: 2, cat.VANILLA: 2},
        "Wondery": {cat.CONNECTED_CAR: 1.5, cat.FASHION: 1.5, cat.VANILLA: 1.5},
        "Amazon Fresh": {cat.CONNECTED_CAR: 1, cat.FASHION: 1, cat.VANILLA: 1.5},
    },
    "Spotify": {
        "Spotify Premium": {cat.CONNECTED_CAR: 1.8, cat.FASHION: 1.8, cat.VANILLA: 1.8},
        "Ashley": {cat.FASHION: 2.5},
        "Ross": {cat.FASHION: 2.5},
        "State Farm": {cat.CONNECTED_CAR: 1, cat.FASHION: 1, cat.VANILLA: 1.5},
        "McDonald's": {cat.CONNECTED_CAR: 1, cat.FASHION: 1.2, cat.VANILLA: 1.2},
        "Verizon": {cat.CONNECTED_CAR: 0.8, cat.FASHION: 0.8, cat.VANILLA: 1},
    },
    "Pandora": {
        "Swiffer Wet Jet": {cat.FASHION: 2.2},
        "Burlington": {cat.FASHION: 3.0, cat.CONNECTED_CAR: 0.4, cat.VANILLA: 0.5},
        "Kohl's": {cat.FASHION: 2.8, cat.CONNECTED_CAR: 0.4, cat.VANILLA: 0.6},
        "Febreeze car": {cat.CONNECTED_CAR: 1.8},
        "Wendy's": {cat.CONNECTED_CAR: 1, cat.FASHION: 1, cat.VANILLA: 1.2},
        "Progressive": {cat.CONNECTED_CAR: 1.2, cat.FASHION: 0.8, cat.VANILLA: 1},
        "T-Mobile": {cat.CONNECTED_CAR: 0.8, cat.FASHION: 0.8, cat.VANILLA: 1},
    },
}


# --------------------------------------------------------------------- #
# Amazon interest inference (Table 12)
# --------------------------------------------------------------------- #

#: (persona category, exposure level) -> inferred advertising interests.
#: Exposure levels: "installation", "interaction-1", "interaction-2".
INTEREST_RULES: Mapping[Tuple[str, str], Tuple[str, ...]] = {
    (cat.HEALTH, "installation"): ("Electronics", "Home & Garden: DIY & Tools"),
    (cat.HEALTH, "interaction-1"): ("Home & Garden: DIY & Tools",),
    (cat.FASHION, "interaction-1"): (
        "Beauty & Personal Care",
        "Fashion",
        "Video Entertainment",
    ),
    (cat.FASHION, "interaction-2"): ("Fashion", "Video Entertainment"),
    (cat.SMART_HOME, "interaction-1"): (
        "Electronics",
        "Home & Garden: DIY & Tools",
        "Home & Garden: Home & Kitchen",
    ),
    (cat.SMART_HOME, "interaction-2"): (
        "Pet Supplies",
        "Home & Garden: DIY & Tools",
        "Home & Garden: Home & Kitchen",
    ),
}

#: Personas whose advertising-interest file is missing from the second
#: post-interaction data request (§6.1) — including on re-request.
MISSING_INTEREST_FILE_PERSONAS: Tuple[str, ...] = (
    cat.HEALTH,
    cat.WINE,
    cat.RELIGION,
    cat.DATING,
    cat.VANILLA,
)
