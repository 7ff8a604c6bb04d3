"""The request log and bid records: small to keep, unchanged in behaviour.

The crawl keeps one :class:`LoggedRequest` per hop and one
:class:`BidRecord` per bid, so these records are slotted, the cookies a
request sent are the jar's own copy-on-write snapshot, and a response
that sets no cookie shares one immutable empty mapping.  None of that
may show: records stay frozen, equal, hashable and picklable as before,
and a logged snapshot never changes after the fact.
"""

import dataclasses
import datetime as dt
import pickle

import pytest

from repro.adtech.ads import AdCreative
from repro.adtech.bidder import AuctionContext
from repro.adtech.prebid import BidResponse
from repro.netsim.http import EMPTY_MAPPING, HttpResponse
from repro.util.clock import SimClock
from repro.web.browser import Browser, BrowserProfile, CookieJar, LoggedRequest, WebUniverse
from repro.web.openwpm import AdRecord, BidRecord

WHEN = dt.datetime(2021, 12, 27, 9, tzinfo=dt.timezone.utc)

RECORDS = [
    LoggedRequest(1.5, "https://a.example.com/x?y=1", "GET", {"uid": "u"}, 200,
                  EMPTY_MAPPING, None, "https://a.example.com/x?y=1"),
    LoggedRequest(2.0, "https://s.example.com/cm", "GET", {}, 302,
                  {"sid": "1"}, "https://b.example.com/ok", "https://s.example.com/cm"),
    BidRecord("fashion", 2, "site.com", "site.com--slot-0", "dsp01", 0.4312, 99.5, True),
    AdRecord("fashion", 2, "site.com", "site.com--slot-0",
             AdCreative("c1", "Acme", "shoes", "vendor")),
    BidResponse("site.com--slot-0", "dsp01", 0.4312),
    AuctionContext("fashion", True, WHEN, "site.com--slot-0", 2),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestSlottedRecords:
    def test_frozen_without_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        # A name that is not a field cannot be added either.  (CPython
        # 3.11 and 3.12 raise TypeError here for a frozen slotted class:
        # the generated ``__setattr__`` calls ``super()`` on the class
        # that ``slots=True`` replaced.)
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            record.extra = 1
        assert not hasattr(record, "extra")

    def test_pickle_round_trip_is_equal(self, record):
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is type(record)
        assert restored == record
        assert repr(restored) == repr(record)
        assert dataclasses.astuple(restored) == dataclasses.astuple(record)

    def test_equality_and_hash_follow_the_fields(self, record):
        twin = dataclasses.replace(record)
        assert twin == record and twin is not record
        try:
            assert hash(twin) == hash(record)
        except TypeError:
            # Records holding dicts were unhashable before, and still are.
            assert any(isinstance(v, dict) for v in dataclasses.astuple(record))


def test_reprs_and_field_order_are_unchanged():
    assert repr(BidResponse("s", "b", 1.25)) == (
        "BidResponse(slot_id='s', bidder='b', cpm=1.25, currency='USD')"
    )
    assert repr(RECORDS[0]) == (
        "LoggedRequest(timestamp=1.5, url='https://a.example.com/x?y=1', "
        "method='GET', cookies_sent={'uid': 'u'}, status=200, set_cookies={}, "
        "redirect_to=None, chain_root='https://a.example.com/x?y=1')"
    )
    assert [f.name for f in dataclasses.fields(BidRecord)] == [
        "persona", "iteration", "site", "slot_id", "bidder", "cpm", "timestamp", "interacted",
    ]
    assert [f.name for f in dataclasses.fields(AuctionContext)] == [
        "persona", "interacted", "when", "slot_id", "iteration",
    ]


class TestCookieSnapshots:
    def _browser(self):
        universe = WebUniverse()
        universe.register("a.example.com", lambda request: HttpResponse(200))
        universe.register(
            "b.example.com",
            lambda request: HttpResponse(200, set_cookies={"seen": str(len(request.cookies))}),
        )
        return Browser(BrowserProfile("prof-1", "tester"), universe, SimClock())

    def test_logged_cookies_never_change_after_later_sets(self):
        browser = self._browser()
        jar = browser.profile.jar
        browser.get("https://a.example.com/1")
        browser.get("https://a.example.com/2")
        first, second = browser.request_log
        sent = dict(first.cookies_sent)
        assert list(sent) == ["uid"]
        # Requests between two sets share one snapshot: no copy per request.
        assert second.cookies_sent is first.cookies_sent
        jar.set("a.example.com", "uid", "replaced")
        jar.set("www.a.example.com", "extra", "1")
        assert first.cookies_sent == sent and second.cookies_sent == sent
        browser.get("https://a.example.com/3")
        assert browser.request_log[-1].cookies_sent == {"uid": "replaced", "extra": "1"}
        assert first.cookies_sent == sent

    def test_set_cookies_from_a_response_do_not_reach_the_logged_request(self):
        browser = self._browser()
        browser.get("https://b.example.com/")
        browser.get("https://b.example.com/")
        first, second = browser.request_log
        assert list(first.cookies_sent) == ["uid"]
        assert list(second.cookies_sent) == ["uid", "seen"]
        assert first.set_cookies == {"seen": "1"} and second.set_cookies == {"seen": "2"}

    def test_get_returns_a_copy(self):
        jar = CookieJar()
        jar.set("a.example.com", "uid", "u")
        copy = jar.get("www.a.example.com")
        copy["uid"] = "changed"
        copy["new"] = "x"
        assert jar.get("a.example.com") == {"uid": "u"}
        assert jar.snapshot("a.example.com") == {"uid": "u"}
        assert len(jar) == 1 and jar.domains() == ["example.com"]

    def test_set_keeps_cookie_order(self):
        jar = CookieJar()
        for name, value in [("a", "1"), ("b", "2"), ("a", "3")]:
            jar.set("x.example.com", name, value)
        assert list(jar.get("example.com").items()) == [("a", "3"), ("b", "2")]


class TestSharedEmptySetCookies:
    def test_responses_without_cookies_share_it(self):
        assert HttpResponse(200).set_cookies is EMPTY_MAPPING
        assert HttpResponse(404, body={"x": 1}).set_cookies is EMPTY_MAPPING
        assert HttpResponse(200, set_cookies={"a": "b"}).set_cookies == {"a": "b"}

    def test_it_raises_on_mutation(self):
        with pytest.raises(TypeError):
            EMPTY_MAPPING["uid"] = "u"
        with pytest.raises(TypeError):
            del EMPTY_MAPPING["uid"]
        for name in ("update", "setdefault", "pop", "clear"):
            assert not hasattr(EMPTY_MAPPING, name)
        assert len(EMPTY_MAPPING) == 0 and dict(EMPTY_MAPPING) == {}

    def test_it_reads_prints_and_pickles_as_an_empty_dict(self):
        assert EMPTY_MAPPING == {} and {} == EMPTY_MAPPING
        assert EMPTY_MAPPING != {"a": "b"}
        assert repr(EMPTY_MAPPING) == "{}" and not EMPTY_MAPPING
        assert EMPTY_MAPPING.get("uid", "none") == "none" and "uid" not in EMPTY_MAPPING
        assert pickle.loads(pickle.dumps(EMPTY_MAPPING)) is EMPTY_MAPPING
        response = pickle.loads(pickle.dumps(HttpResponse(200)))
        assert response == HttpResponse(200) and response.set_cookies is EMPTY_MAPPING
        assert HttpResponse(200).to_payload()["set_cookies"] == {}

    def test_the_log_keeps_the_shared_mapping(self):
        universe = WebUniverse()
        universe.register("a.example.com", lambda request: HttpResponse(200))
        browser = Browser(BrowserProfile("prof-1", "tester"), universe, SimClock())
        browser.get("https://a.example.com/")
        browser.get("https://nowhere.example.net/")
        assert all(entry.set_cookies is EMPTY_MAPPING for entry in browser.request_log)
