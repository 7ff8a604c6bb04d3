"""Tests for the Adblock-style filter-list engine."""

import pytest

from repro.orgmap.filterlists import FilterList, FilterRule, parse_rules


class TestParseRules:
    def test_domain_anchor(self):
        (rule,) = parse_rules(["||ads.example.com^"])
        assert rule.host == "ads.example.com"
        assert rule.match_subdomains
        assert not rule.is_exception

    def test_exception_rule(self):
        (rule,) = parse_rules(["@@||good.example.com^"])
        assert rule.is_exception

    def test_plain_host(self):
        (rule,) = parse_rules(["tracker.example.net"])
        assert rule.host == "tracker.example.net"
        assert not rule.match_subdomains

    def test_url_anchor(self):
        (rule,) = parse_rules(["|https://pixel.example.com/collect"])
        assert rule.host == "pixel.example.com"

    def test_comments_and_blanks_skipped(self):
        rules = parse_rules(["! comment", "", "# other", "[Adblock Plus 2.0]"])
        assert rules == []

    def test_garbage_skipped(self):
        assert parse_rules(["nodots", "^^^"]) == []

    def test_case_normalized(self):
        (rule,) = parse_rules(["||ADS.Example.COM^"])
        assert rule.host == "ads.example.com"


class TestFilterList:
    @pytest.fixture
    def fl(self):
        return FilterList.from_text(
            """
            ||megaphone.fm^
            ||podtrac.com^
            exact.tracker.io
            @@||pod.npr.org^
            ||npr.org^
            """
        )

    def test_blocks_domain(self, fl):
        assert fl.is_blocked("megaphone.fm")

    def test_blocks_subdomain(self, fl):
        assert fl.is_blocked("cdn.megaphone.fm")

    def test_does_not_block_suffix_lookalike(self, fl):
        assert not fl.is_blocked("notmegaphone.fm")

    def test_exact_rule_no_subdomains(self, fl):
        assert fl.is_blocked("exact.tracker.io")
        assert not fl.is_blocked("sub.exact.tracker.io")

    def test_exception_beats_block(self, fl):
        # npr.org is blocked but pod.npr.org is excepted.
        assert fl.is_blocked("www.npr.org")
        assert not fl.is_blocked("play.pod.npr.org")

    def test_unlisted_domain_not_blocked(self, fl):
        assert not fl.is_blocked("example.org")

    def test_classify_partitions(self, fl):
        ad, functional = fl.classify(
            ["cdn.megaphone.fm", "example.org", "dts.podtrac.com"]
        )
        assert ad == ["cdn.megaphone.fm", "dts.podtrac.com"]
        assert functional == ["example.org"]

    def test_from_hosts(self):
        fl = FilterList.from_hosts(["bad.example.com"])
        assert fl.is_blocked("sub.bad.example.com")

    def test_trailing_dot_normalized(self, fl):
        assert fl.is_blocked("cdn.megaphone.fm.")

    def test_len(self, fl):
        assert len(fl) == 5

    def test_verdicts_are_memoized_per_domain(self, fl, monkeypatch):
        matched = []
        match = fl._match

        def counted(domain):
            matched.append(domain)
            return match(domain)

        monkeypatch.setattr(fl, "_match", counted)
        domains = ["cdn.megaphone.fm", "example.org"] * 3
        verdicts = [fl.is_blocked(domain) for domain in domains]
        assert verdicts == [True, False] * 3
        assert matched == ["cdn.megaphone.fm", "example.org"]
        assert fl.cache_hits == 4


class TestPaperFilterList:
    """The shipped Pi-hole list must classify the paper's domains correctly."""

    @pytest.fixture
    def fl(self):
        from repro.data.domains import PIHOLE_FILTER_TEXT

        return FilterList.from_text(PIHOLE_FILTER_TEXT)

    @pytest.mark.parametrize(
        "domain",
        [
            "device-metrics-us-2.amazon.com",
            "cdn.megaphone.fm",
            "play.podtrac.com",
            "chtbl.com",
            "traffic.libsyn.com",
            "live.streamtheworld.com",
            "turnernetworksales.mc.tritondigital.com",
            "traffic.omny.fm",
            "s.amazon-adsystem.com",
        ],
    )
    def test_ad_tracking_domains_blocked(self, fl, domain):
        assert fl.is_blocked(domain)

    @pytest.mark.parametrize(
        "domain",
        [
            "avs-alexa-16-na.amazon.com",  # voice pipeline is functional
            "play.pod.npr.org",  # NPR content excepted
            "dillilabs.com",
            "cdn2.voiceapps.com",
            "api.youversionapi.com",
            "static.garmincdn.com",
            "discovery.meethue.com",
        ],
    )
    def test_functional_domains_not_blocked(self, fl, domain):
        assert not fl.is_blocked(domain)
