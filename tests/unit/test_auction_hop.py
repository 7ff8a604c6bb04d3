"""The auction hop's memos against the work they replace.

Every per-world, per-page and per-bidder memo on the header-bidding
path is checked here against a reference that does the work afresh on
each call, the way the code did before it was memoised: the memos may
only save work, never change a byte.
"""

import datetime as dt
import pickle
import random
import urllib.parse
from urllib.parse import parse_qsl, urlencode, urlparse

import pytest

import repro.netsim.http as http_module
from repro.adtech.bidder import WEB_SIGNAL_FRACTION, AuctionContext
from repro.adtech.exchange import SLOT_FAILURE_RATE, AdTechWorld
from repro.adtech.prebid import PrebidSession
from repro.data import calibration
from repro.data import categories as cat
from repro.data.websites import WebsiteSpec
from repro.netsim.endpoints import registrable_domain
from repro.netsim.http import HttpRequest, HttpResponse
from repro.obs.collector import ObsCollector
from repro.util.clock import SimClock
from repro.util.ids import stable_hash
from repro.util.rng import Seed
from repro.web.browser import Browser, BrowserProfile, WebUniverse

UTC = dt.timezone.utc

URLS = [
    "https://a.example.com/p/q?x=1&y=2",
    "https://a.example.com/s?uid=a&uid=b",
    "https://a.example.com/s?blank=&x=1&flag",
    "https://a.example.com/s?q=hello+world&r=a%20b%26c&s=%2B%3D",
    "http://a.example.com:8080/p;params?x=1#frag",
    "https://a.example.com",
    "https://ib.dsp01.bid-exchange.com/cm-confirm?status=ok",
]


@pytest.fixture
def calls(monkeypatch):
    """Counts ``urlsplit`` (which ``urlparse`` goes through) and ``parse_qsl``."""
    counts = {"urlsplit": 0, "parse_qsl": 0}
    original_split, original_qsl = urllib.parse.urlsplit, http_module.parse_qsl

    def counting_split(*args, **kwargs):
        counts["urlsplit"] += 1
        return original_split(*args, **kwargs)

    def counting_qsl(*args, **kwargs):
        counts["parse_qsl"] += 1
        return original_qsl(*args, **kwargs)

    monkeypatch.setattr(urllib.parse, "urlsplit", counting_split)
    monkeypatch.setattr(http_module, "parse_qsl", counting_qsl)
    return counts


class TestRequestCopies:
    @pytest.mark.parametrize("url", URLS)
    @pytest.mark.parametrize("read_first", [False, True])
    def test_with_cookies_equals_fresh_construction(self, url, read_first):
        headers, body = {"h": "1"}, {"b": 2}
        original = HttpRequest("GET", url, headers=headers, body=body)
        if read_first:
            original.query_pairs
        cookies = {"uid": "u1"}
        copy = original.with_cookies(cookies)
        fresh = HttpRequest("GET", url, headers=headers, cookies=cookies, body=body)
        assert copy == fresh
        assert repr(copy) == repr(fresh)
        assert pickle.dumps(copy) == pickle.dumps(fresh)
        assert copy.cookies is cookies and original.cookies == {}
        # The copy keeps the original's lazy-query state, parsed or not.
        assert copy._parsed == original._parsed
        assert (copy.scheme, copy.host, copy.path) == (fresh.scheme, fresh.host, fresh.path)
        assert copy.to_payload() == fresh.to_payload()
        assert pickle.loads(pickle.dumps(copy)).query_pairs == fresh.query_pairs

    @pytest.mark.parametrize("url", URLS)
    def test_query_first_read_after_copy_is_parse_qsl(self, url):
        copy = HttpRequest("GET", url).with_cookies({"uid": "u"})
        pairs = parse_qsl(urlparse(url).query)
        assert copy.query_pairs == pairs
        assert copy.query == dict(pairs)
        assert copy.query_values("uid") == [v for k, v in pairs if k == "uid"]

    def test_part_built_copy_keeps_pairs(self):
        pairs = (("slot", "s 1"), ("when", "2021-12-10T09:00:00+00:00"))
        built = HttpRequest.from_parts("GET", "https", "b.example.com", "/bid", pairs)
        copy = built.with_cookies({"uid": "u"})
        assert copy == HttpRequest("GET", built.url, cookies={"uid": "u"})
        assert copy.query_pairs == list(pairs)


class TestLazyQuery:
    @pytest.mark.parametrize("url", URLS)
    def test_unread_query_is_never_parsed(self, url, calls):
        request = HttpRequest("GET", url)
        read = (request.host, request.path, request.is_https, request.url)
        read += (request.with_cookies({"uid": "x"}).host,)
        assert read and calls == {"urlsplit": 1, "parse_qsl": 0}

    def test_query_is_parsed_once_on_first_read(self, calls):
        request = HttpRequest("GET", "https://a.example.com/s?uid=a&uid=b")
        assert calls == {"urlsplit": 1, "parse_qsl": 0}
        assert request.query_values("uid") == ["a", "b"]
        read = (request.query, request.query_pairs, request.to_payload())
        assert read and calls == {"urlsplit": 1, "parse_qsl": 1}

    def test_invalid_url_still_rejected_at_construction(self):
        for url in ("ftp://a.example.com/?x=1", "https:///p?x=1", "not a url"):
            with pytest.raises(ValueError):
                HttpRequest("GET", url)


class TestRegistrableDomain:
    def test_memo_matches_the_rule(self):
        rule = registrable_domain.__wrapped__
        for host in ("a.b.example.com", "Example.COM.", "x.co.uk", "a.alexa.a2z.com", "c"):
            assert registrable_domain(host) == rule(host)
            assert registrable_domain(host) == rule(host)
        assert registrable_domain.cache_info().maxsize is not None


def reference_bid(seed, bidder, context):
    """``Bidder.compute_bid`` with a fresh stream and no memo, as it was."""
    rng = seed.rng("bid", bidder.code, context.persona, context.iteration, context.slot_id)
    params = calibration.bid_params.__wrapped__
    persona = cat.base_category(context.persona)
    if persona == cat.VANILLA or not context.interacted:
        chosen = params(cat.VANILLA)
    elif persona in cat.WEB_CATEGORIES:
        chosen = params(persona if rng.random() < WEB_SIGNAL_FRACTION else cat.VANILLA)
    else:
        q = calibration.INFORMED_FRACTION[persona]
        if not bidder.is_partner:
            q *= calibration.NON_PARTNER_SIGNAL_FACTOR
        chosen = params(persona if rng.random() < q else cat.VANILLA)
    cpm = rng.lognormvariate(chosen.mu, chosen.sigma)
    return round(cpm * calibration._day_factor.__wrapped__(context.when.date()), 4)


class TestComputeBid:
    def test_shuffled_interleaving_equals_fresh_streams(self):
        seed = Seed(17)
        world = AdTechWorld(seed, WebUniverse())
        bidders = world.bidders[:3] + world.bidders[-3:]  # partners and not
        personas = [cat.FASHION, cat.VANILLA, cat.WEB_HEALTH, cat.PETS + "-r2", cat.SMART_HOME]
        days = [dt.datetime(2021, 12, d, 9, tzinfo=UTC) for d in (3, 10, 21, 27, 31)]
        days.append(dt.datetime(2022, 1, 4, tzinfo=UTC))
        contexts = [
            AuctionContext(persona, interacted, when, f"site{s}.com--slot-{s}", iteration)
            for persona in personas
            for interacted in (False, True)
            for when in days[::2]
            for s in range(2)
            for iteration in (0, 3)
        ]
        contexts += [AuctionContext(cat.DATING, True, when, "s", 1) for when in days]
        calls = [(b, c) for b in bidders for c in contexts] * 2
        random.Random(5).shuffle(calls)
        for bidder, context in calls:
            assert bidder.compute_bid(context) == reference_bid(seed, bidder, context)

    def test_bid_params_memo_matches_fresh(self):
        for persona in [cat.VANILLA, cat.FASHION, cat.WEB_SCIENCE, *cat.WEB_CATEGORIES]:
            assert calibration.bid_params(persona) == calibration.bid_params.__wrapped__(persona)
        with pytest.raises(KeyError):
            calibration.bid_params("no-such-category")

    def test_holiday_factor_memo_matches_fresh(self):
        start = dt.datetime(2021, 11, 30, 23, tzinfo=UTC)
        for hours in range(0, 40 * 24, 7):
            when = start + dt.timedelta(hours=hours)
            expected = calibration._day_factor.__wrapped__(when.date())
            assert calibration.holiday_factor(when) == expected


class TestAdTechWorldMemos:
    def test_slot_loads_memo_equals_fresh_draw(self):
        seed = Seed(9)
        world = AdTechWorld(seed, WebUniverse())
        pairs = [(f"site{i}.com--slot-{j}", p) for i in range(30) for j in range(3)
                 for p in (cat.FASHION, cat.VANILLA, "dating-r3")] * 2
        random.Random(1).shuffle(pairs)
        for slot, persona in pairs:
            fresh = seed.rng("adtech", "slot-load", slot, persona).random() >= SLOT_FAILURE_RATE
            assert world.slot_loads(slot, persona) is fresh
        assert len(world._slot_loads) == len(set(pairs))

    def test_sync_urls_equal_full_rescan(self):
        world = AdTechWorld(Seed(4), WebUniverse())
        world.obs = ObsCollector()
        done = set()  # (partner, downstream domain, uid), rescanned every call
        downstream_total = 0
        rng = random.Random(8)
        bidders = world.bidders[:4] + world.bidders[-2:]
        uids = [f"uid{i}" for i in range(5)]
        for _ in range(300):
            bidder, uid = rng.choice(bidders), rng.choice(uids)
            expected = []
            if bidder.is_partner:
                if (bidder.code, uid) not in world._matches:
                    expected.append(
                        f"https://s.amazon-adsystem.com/x/cm?bidder={bidder.code}&uid={uid}"
                    )
                for domain in world._downstream_by_partner.get(bidder.code, ()):
                    if (bidder.code, domain, uid) not in done:
                        done.add((bidder.code, domain, uid))
                        downstream_total += 1
                        expected.append(
                            f"https://{domain}/setuid?partner={bidder.code}&uid={uid}"
                        )
            assert world._sync_urls(bidder, uid) == expected
            if rng.random() < 0.3:  # the browser follows the Amazon match
                world._matches.add((bidder.code, uid))
        assert world.obs.metrics.value("adtech.downstream_syncs") == downstream_total

    def test_when_is_parsed_once_per_value(self):
        world = AdTechWorld(Seed(4), WebUniverse())
        stamps = ["2021-12-10T09:00:00+00:00", "2021-12-10T09:00:00+00:00",
                  "2021-12-11T10:30:00.250000+00:00", "2021-12-10T09:00:00+00:00"]
        parsed = [world._parse_when(s) for s in stamps]
        assert parsed == [dt.datetime.fromisoformat(s) for s in stamps]
        assert parsed[0] is parsed[1]


class TestAuctionContextMemo:
    def test_per_unit_context_equals_a_fresh_one(self):
        """One context per (query, persona, interacted), the last kept: a
        run of bidders for one unit shares it, and any interleaving of
        units, personas and treatment flips reads what a context built
        afresh from ``request.query`` on every call reads."""
        seed = Seed(12)
        world = AdTechWorld(seed, WebUniverse())
        states = [
            world.register_profile(BrowserProfile(f"prof-{p}", p))
            for p in (cat.FASHION, cat.VANILLA, cat.WEB_HEALTH)
        ]
        stamps = ["2021-12-27T09:00:00+00:00", "2021-12-29T10:30:00.250000+00:00"]
        queries = [
            (("slot", f"site{s}.com--slot-{s}"), ("page", f"site{s}.com"),
             ("iteration", str(i)), ("when", when))
            for s in range(3) for i in (0, 2) for when in stamps
        ]
        calls = [(q, state, flag) for q in queries for state in states
                 for flag in (False, True)] * 2
        random.Random(3).shuffle(calls)
        # Runs of bidders on one unit, as a page sends them.
        calls = [call for call in calls[:60] for _ in range(3)] + calls[60:]
        bidders = world.bidders[:2] + world.bidders[-2:]
        for n, (pairs, state, flag) in enumerate(calls):
            state.interacted = flag
            bidder = bidders[n % len(bidders)]
            request = HttpRequest.from_parts("GET", "https", bidder.domain, "/bid", pairs)
            query = HttpRequest("GET", request.url).query
            fresh = AuctionContext(
                persona=state.persona,
                interacted=flag,
                when=dt.datetime.fromisoformat(query["when"]),
                slot_id=query["slot"],
                iteration=int(query["iteration"]),
            )
            uid = stable_hash("uid", state.profile_id, registrable_domain(bidder.domain))
            reply = world.universe.handle(request.with_cookies({"uid": uid}))
            assert world._auction[1] == fresh
            assert reply.body["cpm"] == reference_bid(seed, bidder, fresh)
            assert world._auction_for(pairs, state) is world._auction[1]

    def test_string_built_query_reads_last_value(self):
        world = AdTechWorld(Seed(12), WebUniverse())
        state = world.register_profile(BrowserProfile("prof-f", cat.FASHION))
        url = ("https://b.example.com/bid?slot=a&page=p&iteration=1"
               "&when=2021-12-27T09:00:00%2B00:00&slot=b&iteration=4")
        request = HttpRequest("GET", url)
        context = world._auction_for(request._pairs, state)
        assert (context.slot_id, context.iteration) == ("b", 4)
        assert context.when == dt.datetime(2021, 12, 27, 9, tzinfo=UTC)


class TestBidQuery:
    def test_bid_urls_are_urlencode_of_the_pairs(self):
        universe = WebUniverse()
        world = AdTechWorld(Seed(21), universe)
        profile = BrowserProfile("prof-q", cat.FASHION)
        world.register_profile(profile)
        clock = SimClock()
        clock.advance(0.123456)  # a microsecond part in ``when``
        browser = Browser(profile, universe, clock)
        site = WebsiteSpec(domain="pub.example.com", rank=1, supports_prebid=True,
                           prebid_version="6.18.0", ad_slots=3)
        units = ["pub.example.com--slot-0", "a b&c=d/é+?", "x%2Fy"]
        universe.register(site.domain, lambda request: HttpResponse(
            status=200, body={"prebid_version": "6.18.0", "ad_units": units}))
        session = PrebidSession(site, browser, world, iteration=4)
        session.load_page()
        when = clock.datetime().isoformat()
        session.request_bids()
        bid_urls = [e.url for e in browser.request_log if urlparse(e.url).path == "/bid"]
        assert bid_urls
        for url in bid_urls:
            slot = dict(parse_qsl(urlparse(url).query))["slot"]
            pairs = (("slot", slot), ("page", site.domain), ("iteration", "4"), ("when", when))
            assert url.split("?", 1)[1] == urlencode(pairs)
        assert {dict(parse_qsl(urlparse(u).query))["slot"] for u in bid_urls} <= set(units)
