"""The HTTP message model: one URL parse per request, none for part-built ones.

Every accessor is checked against a reference computed directly with
``urllib.parse``, so keeping the parsed parts can never change what a
request reports.
"""

import pickle
import urllib.parse
from urllib.parse import parse_qsl, urlencode, urlparse, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.http import HttpRequest, HttpResponse
from repro.util.clock import SimClock
from repro.web.browser import Browser, BrowserProfile, WebUniverse

CORPUS = [
    "https://a.example.com/p/q?x=1&y=2",
    "http://a.example.com:8080/p?x=1",
    "https://user:pw@a.example.com:443/p",
    "https://a.example.com/s?uid=a&uid=b",
    "https://a.example.com/s?uid=alpha&x=1&uid=beta",
    "https://a.example.com/s?blank=&x=1&flag",
    "https://a.example.com/s?q=hello+world&r=a%20b%26c&s=%2B%3D",
    "https://a.example.com",
    "https://a.example.com?x=1",
    "http://a.example.com/path;params?x=1",
    "https://a.example.com/p;a=b;c/d?k=v#frag",
    "https://a.example.com/p?x=1#frag?not=query",
    "https://a.example.com/%7Euser/caf%C3%A9?name=caf%C3%A9",
    "https://ib.bidder.bid-exchange.com/cm-confirm?status=ok",
    "https://s.amazon-adsystem.com/x/cm?bidder=b01&uid=0f3c",
]


def reference(url):
    """What each accessor must report, straight from ``urllib.parse``."""
    parsed = urlparse(url)
    pairs = parse_qsl(parsed.query)
    return {
        "host": parsed.netloc.split(":")[0],
        "path": parsed.path or "/",
        "query": dict(pairs),
        "query_pairs": pairs,
        "is_https": parsed.scheme == "https",
    }


@pytest.fixture
def urlsplit_calls(monkeypatch):
    """Counts calls to ``urllib.parse.urlsplit`` (``urlparse`` goes through it)."""
    calls = []
    original = urllib.parse.urlsplit

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(urllib.parse, "urlsplit", counting)
    return calls


def bid_request(domain="bidder.example.com", **fields):
    pairs = (("slot", "site.com--slot-0"), ("page", "site.com"), ("iteration", "3"))
    return HttpRequest.from_parts("GET", "https", domain, "/bid", pairs, **fields)


class HashableMap(dict):
    def __hash__(self):
        return hash(frozenset(self.items()))


class TestCorpusEquivalence:
    @pytest.mark.parametrize("url", CORPUS)
    def test_accessors_match_urllib(self, url):
        request = HttpRequest("GET", url)
        expected = reference(url)
        assert request.host == expected["host"]
        assert request.path == expected["path"]
        assert request.query == expected["query"]
        assert request.query_pairs == expected["query_pairs"]
        assert request.is_https == expected["is_https"]
        for key in {name for name, _ in expected["query_pairs"]} | {"missing"}:
            assert request.query_values(key) == [
                value for name, value in expected["query_pairs"] if name == key
            ]

    @pytest.mark.parametrize("url", CORPUS)
    def test_payload_matches_urllib(self, url):
        payload = HttpRequest("GET", url).to_payload()
        expected = reference(url)
        assert payload["url"] == url
        assert (payload["host"], payload["path"], payload["query"]) == (
            expected["host"], expected["path"], expected["query"],
        )

    @pytest.mark.parametrize("url", CORPUS)
    def test_with_query_matches_urllib(self, url):
        parsed = urlparse(url)
        merged = dict(parse_qsl(parsed.query))
        merged.update(uid="z z", x="9")
        rebuilt = parsed._replace(query=urlencode(merged)).geturl()
        request = HttpRequest("GET", url, cookies={"c": "1"}).with_query(uid="z z", x="9")
        assert request == HttpRequest("GET", rebuilt, cookies={"c": "1"})
        assert request.query == dict(parse_qsl(urlparse(rebuilt).query))

    @pytest.mark.parametrize("url", CORPUS)
    def test_with_cookies_keeps_parts(self, url):
        request = HttpRequest("GET", url).with_cookies({"uid": "u1"})
        assert request == HttpRequest("GET", url, cookies={"uid": "u1"})
        assert request.query_pairs == reference(url)["query_pairs"]
        assert request.host == reference(url)["host"]

    def test_part_built_equals_string_built(self):
        built = bid_request()
        parsed = HttpRequest("GET", built.url)
        assert built.url == (
            "https://bidder.example.com/bid?slot=site.com--slot-0&page=site.com&iteration=3"
        )
        assert (built.host, built.path, built.query_pairs, built.is_https) == (
            parsed.host, parsed.path, parsed.query_pairs, parsed.is_https,
        )
        assert built.to_payload() == parsed.to_payload()

    def test_part_built_without_query_or_path(self):
        built = HttpRequest.from_parts("GET", "http", "a.example.com", "")
        assert built.url == "http://a.example.com"
        assert built == HttpRequest("GET", "http://a.example.com")
        assert (built.path, built.query_pairs) == ("/", [])


class TestParseCounts:
    def test_string_built_parses_once(self, urlsplit_calls):
        request = HttpRequest("GET", "https://a.example.com/s?uid=a&uid=b#f")
        assert len(urlsplit_calls) == 1
        read = (request.host, request.path, request.query, request.query_pairs)
        read += (request.query_values("uid"), request.is_https, request.to_payload())
        read += (request.with_cookies({"uid": "x"}).host,)
        assert len(urlsplit_calls) == 1

    def test_part_built_never_parses(self, urlsplit_calls):
        request = bid_request(cookies={"uid": "u"})
        read = (request.host, request.query, request.to_payload(), request.with_cookies({}))
        assert read and urlsplit_calls == []

    def test_browser_parses_each_hop_once(self, urlsplit_calls):
        universe = WebUniverse()
        universe.register(
            "a.example.com",
            lambda req: HttpResponse(302, redirect_url="https://b.example.com/done?x=1"),
        )
        universe.register("b.example.com", lambda req: HttpResponse(200, body={"x": req.query}))
        universe.register("bidder.example.com", lambda req: HttpResponse(200, body=req.query))
        browser = Browser(BrowserProfile("prof-1", "tester"), universe, SimClock())
        assert browser.get("https://a.example.com/start").body == {"x": {"x": "1"}}
        assert urlsplit_calls == ["https://a.example.com/start", "https://b.example.com/done?x=1"]
        del urlsplit_calls[:]
        assert browser.get(bid_request()).body["iteration"] == "3"
        assert urlsplit_calls == []
        assert browser.request_log[-1].url == bid_request().url
        assert browser.request_log[-1].cookies_sent["uid"]


class TestValidation:
    @pytest.mark.parametrize(
        "method, scheme, host, path, message",
        [
            ("FETCH", "https", "a.example.com", "/", "unsupported HTTP method: FETCH"),
            ("GET", "ftp", "a.example.com", "/x", "invalid URL: ftp://a.example.com/x"),
            ("GET", "https", "", "/x", "invalid URL: https:///x"),
            ("GET", "", "a.example.com", "/", "invalid URL: ://a.example.com/"),
        ],
    )
    def test_both_routes_raise_the_same_error(self, method, scheme, host, path, message):
        with pytest.raises(ValueError) as from_parts:
            HttpRequest.from_parts(method, scheme, host, path)
        with pytest.raises(ValueError) as from_string:
            HttpRequest(method, f"{scheme}://{host}{path}")
        assert str(from_parts.value) == str(from_string.value) == message

    def test_port_only_netloc_has_no_host(self):
        with pytest.raises(ValueError, match="invalid URL"):
            HttpRequest("GET", "https://:8080/x")


URL = "https://a.example.com/p?x=1"
#: Parts that disagree with ``URL``: equality, hashing and pickling must
#: not notice them.
OTHER_PARTS = ("http", "b.example.com", "/q", (("y", "2"),))


def with_other_parts(request):
    """``request`` with its parts overwritten by :data:`OTHER_PARTS`."""
    scheme, host, path, pairs = OTHER_PARTS
    request.__dict__.update(scheme=scheme, host=host, path=path, _parsed=pairs)
    return request


class TestDataclassBehaviour:
    def test_equality_ignores_parts(self):
        built = bid_request(cookies={"uid": "u"})
        assert built == HttpRequest("GET", built.url, cookies={"uid": "u"})
        assert built != HttpRequest("GET", built.url, cookies={"uid": "v"})
        assert with_other_parts(HttpRequest("GET", URL)) == HttpRequest("GET", URL)

    def test_repr_hides_parts(self):
        text = repr(with_other_parts(HttpRequest("GET", URL)))
        assert text == (
            "HttpRequest(method='GET', url='https://a.example.com/p?x=1', "
            "headers={}, cookies={}, body={})"
        )

    def test_hash_ignores_parts(self):
        fields = dict(headers=HashableMap(), cookies=HashableMap(uid="u"), body=HashableMap())
        built = bid_request(**fields)
        parsed = HttpRequest("GET", built.url, **fields)
        assert hash(built) == hash(parsed)
        assert len({built, parsed}) == 1
        other = with_other_parts(HttpRequest("GET", URL, **fields))
        assert hash(other) == hash(HttpRequest("GET", URL, **fields))

    def test_pickle_ignores_parts(self):
        built = bid_request(cookies={"uid": "u"})
        parsed = HttpRequest("GET", built.url, cookies={"uid": "u"})
        assert pickle.dumps(built) == pickle.dumps(parsed)
        restored = pickle.loads(pickle.dumps(built))
        assert restored == built
        assert (restored.host, restored.path, restored.query_pairs) == (
            built.host, built.path, built.query_pairs,
        )
        # Unpickling parses the URL again instead of trusting stored parts.
        other = pickle.loads(pickle.dumps(with_other_parts(HttpRequest("GET", URL))))
        assert (other.host, other.query_pairs) == ("a.example.com", [("x", "1")])


query_text = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
)
labels = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10)
hosts = st.lists(labels, min_size=1, max_size=4).map(".".join)
paths = st.lists(
    st.text("abcdefghijklmnopqrstuvwxyz0123456789-_.~%", max_size=8), max_size=4
).map(lambda parts: "/" + "/".join(parts))
pair_lists = st.lists(st.tuples(query_text, query_text), max_size=6).map(tuple)


class TestPartBuiltProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["http", "https"]), hosts, paths, pair_lists)
    def test_pairs_equal_parse_of_own_url(self, scheme, host, path, pairs):
        built = HttpRequest.from_parts("GET", scheme, host, path, pairs)
        assert built.query_pairs == parse_qsl(urlsplit(built.url).query)
        shared = HttpRequest.from_parts("GET", scheme, host, path, pairs, urlencode(pairs))
        assert shared == built
        parsed = HttpRequest("GET", built.url)
        assert (built.host, built.path, built.is_https, built.query) == (
            parsed.host, parsed.path, parsed.is_https, parsed.query,
        )
