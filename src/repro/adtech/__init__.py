"""The simulated advertising ecosystem: header bidding, DSPs, cookie
syncing, display creatives, and audio-ad insertion."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "AdCreative": "ads",
        "AdServer": "ads",
        "AdTechWorld": "exchange",
        "AdUnit": "prebid",
        "AuctionContext": "bidder",
        "AudioAdServer": "audio",
        "AudioSegment": "audio",
        "BIDDERS_PER_SLOT": "exchange",
        "Bidder": "bidder",
        "BidResponse": "prebid",
        "PersonaState": "exchange",
        "PrebidSession": "prebid",
        "SLOT_FAILURE_RATE": "exchange",
        "StreamSession": "audio",
        "WEB_SIGNAL_FRACTION": "bidder",
        "register_publisher": "prebid",
        "slot_id": "prebid",
    },
)
