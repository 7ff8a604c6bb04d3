"""Web measurement substrate: browsers, profiles, and the OpenWPM-style
crawler used for bid/ad collection and cookie-sync observation."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "AdRecord": "openwpm",
        "BidRecord": "openwpm",
        "Browser": "browser",
        "BrowserProfile": "browser",
        "CookieJar": "browser",
        "CrawlResult": "openwpm",
        "LoggedRequest": "browser",
        "OpenWPMCrawler": "openwpm",
        "WebUniverse": "browser",
        "discover_prebid_sites": "openwpm",
    },
)
