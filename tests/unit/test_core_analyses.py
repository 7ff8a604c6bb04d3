"""Tests for the core analysis modules on a small but complete campaign."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adcontent import (
    analyze_audio_ads,
    analyze_display_ads,
    extract_audio_ads,
    transcribe_session,
)
from repro.core.bids import (
    bid_summary_table,
    bids_on_slots,
    common_slots,
    figure3_series,
    figure7_series,
    holiday_window_means,
    partner_split,
    representative_bids,
)
from repro.core.compliance import analyze_compliance, policy_availability
from repro.core.personas import all_personas, control_personas, interest_personas, Persona
from repro.core.profiling import analyze_profiling
from repro.core.report import format_float, render_distribution, render_kv, render_table
from repro.core.syncing import detect_cookie_syncing
from repro.core.traffic import analyze_traffic
from repro.data import categories as cat


class TestPersonas:
    def test_nine_interest_personas(self):
        assert len(interest_personas()) == 9

    def test_four_controls(self):
        controls = control_personas()
        assert len(controls) == 4
        assert controls[0].kind == "vanilla"

    def test_thirteen_total(self):
        assert len(all_personas()) == 13

    def test_echo_usage(self):
        assert Persona("x", "interest", cat.DATING).uses_echo
        assert not Persona("w", "web", cat.WEB_HEALTH).uses_echo

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Persona("x", "alien", cat.DATING)

    def test_display_names(self):
        assert Persona(cat.DATING, "interest", cat.DATING).display_name == "Dating"
        assert (
            Persona(cat.WEB_HEALTH, "web", cat.WEB_HEALTH).display_name
            == "Web Health"
        )


class TestCommonSlots(object):
    def test_common_slots_subset_of_each_persona(self, small_dataset):
        slots = common_slots(small_dataset)
        assert slots
        for artifacts in small_dataset.personas.values():
            assert slots <= artifacts.loaded_slots

    def test_phase_filtering(self, small_dataset):
        slots = common_slots(small_dataset)
        artifacts = small_dataset.artifacts(cat.FASHION)
        pre = bids_on_slots(artifacts, slots, "pre")
        post = bids_on_slots(artifacts, slots, "post")
        both = bids_on_slots(artifacts, slots, "all")
        assert len(pre) + len(post) == len(both)
        assert all(b.iteration < 0 for b in pre)
        assert all(b.iteration >= 0 for b in post)

    def test_invalid_phase_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            bids_on_slots(small_dataset.vanilla, set(), "mid")

    def test_representative_one_per_slot(self, small_dataset):
        slots = common_slots(small_dataset)
        sample = representative_bids(small_dataset.artifacts(cat.PETS), slots)
        assert len(sample) == len(slots)


class TestBidTables:
    def test_table5_rows_exclude_web(self, small_dataset):
        rows = bid_summary_table(small_dataset)
        names = {r.persona for r in rows}
        assert cat.VANILLA in names
        assert not any(n.startswith("web-") for n in names)

    def test_interest_medians_above_vanilla(self, small_dataset):
        rows = {r.persona: r.summary for r in bid_summary_table(small_dataset)}
        vanilla = rows[cat.VANILLA].median
        above = sum(
            1
            for name, summary in rows.items()
            if name != cat.VANILLA and summary.median > vanilla
        )
        assert above >= 7  # small samples allow an occasional inversion

    def test_holiday_means_cover_echo_personas(self, small_dataset):
        means = holiday_window_means(small_dataset, window=2)
        assert cat.VANILLA in means
        for pre, post in means.values():
            assert pre > 0 and post > 0

    def test_figure3_series_structure(self, small_dataset):
        series = figure3_series(small_dataset)
        assert set(series) == {"pre", "post"}
        assert cat.VANILLA in series["pre"]

    def test_figure7_includes_web_personas(self, small_dataset):
        series = figure7_series(small_dataset)
        assert cat.WEB_HEALTH in series

    def test_partner_split_partitions_bids(self, small_dataset):
        sync = detect_cookie_syncing(small_dataset)
        split = partner_split(small_dataset, sync.amazon_partners)
        slots = common_slots(small_dataset)
        for persona, (partner, non_partner) in split.items():
            total = len(
                bids_on_slots(small_dataset.artifacts(persona), slots, "post")
            )
            n = (partner.n if partner else 0) + (non_partner.n if non_partner else 0)
            assert n == total


class TestSyncDetection:
    def test_partners_detected(self, small_dataset):
        # The scaled-down crawl samples most-but-not-all of the 41
        # partners into auctions; the full-scale benchmark checks ==41.
        sync = detect_cookie_syncing(small_dataset)
        assert 35 <= sync.partner_count <= 41
        assert 200 <= sync.downstream_count <= 247

    def test_amazon_never_syncs_outbound(self, small_dataset):
        sync = detect_cookie_syncing(small_dataset)
        assert sync.amazon_outbound_targets == set()

    def test_events_carry_uids(self, small_dataset):
        sync = detect_cookie_syncing(small_dataset)
        assert all(e.uid for e in sync.events)

    def test_partner_codes_match_bidders(self, small_dataset):
        sync = detect_cookie_syncing(small_dataset)
        bid_bidders = {
            b.bidder for a in small_dataset.personas.values() for b in a.bids
        }
        assert sync.amazon_partners <= bid_bidders

    def test_repeated_uid_params_all_detected(self):
        # uid=a&uid=b piggybacks two identifiers on one sync call; a
        # last-wins dict parse used to drop all but the final one.
        from repro.core.syncing import _parse_syncs
        from repro.web.browser import LoggedRequest

        request = LoggedRequest(
            timestamp=0.0,
            url="https://sync.example.com/setuid?partner=dsp&uid=alpha&uid=beta",
            method="GET",
            cookies_sent={},
            status=200,
            set_cookies={},
            redirect_to=None,
            chain_root="https://pub.example.com/",
        )
        events = _parse_syncs(request, "p1")
        assert [e.uid for e in events] == ["alpha", "beta"]
        assert all(e.source == "dsp" for e in events)


URL_PIECES = [
    "/", "//", "cm", "x/cm", "setuid", "match", "usersync", "pixel", "c", "m",
    "set", "uid", ";p=1", "?", "#", "\t", "\r", "\n", " ", "a=b&", "%2F",
]


class TestSyncCandidatePrefilter:
    """The raw-URL pre-test must never reject a URL whose parsed path syncs."""

    @staticmethod
    def _implies(url):
        from urllib.parse import urlparse

        from repro.core.syncing import _SYNC_CANDIDATE, _SYNC_PATHS

        if _SYNC_PATHS.search(urlparse(url).path):
            assert _SYNC_CANDIDATE.search(url), url

    @pytest.mark.parametrize(
        "url",
        [
            "https://s.example.com/cm?uid=1",
            "https://s.example.com/x/cm/?uid=1",
            "https://s.example.com/usersync;type=img?uid=1",
            "https://s.example.com/match#frag",
            "https://s.example.com/se\ttuid?uid=1",
            "https://s.example.com/\npix\rel/",
            "https://s.example.com/c\r\nm",
            "\t https://s.example.com/setuid",
            "/pixel",
            "//s.example.com/cm",
        ],
    )
    def test_sync_paths_pass(self, url):
        from repro.core.syncing import _SYNC_CANDIDATE

        assert _SYNC_CANDIDATE.search(url)
        self._implies(url)

    @given(
        st.sampled_from(["https://s.example.com", "http://h", "", "//h", "h:", "\t"]),
        st.lists(st.sampled_from(URL_PIECES), max_size=12).map("".join),
    )
    @settings(max_examples=400, deadline=None)
    def test_candidate_is_necessary(self, prefix, rest):
        self._implies(prefix + rest)

    def test_prefiltered_parse_keeps_stripped_sync(self):
        from repro.core.syncing import _parse_syncs
        from repro.web.browser import LoggedRequest

        url = "https://sync.example.com/set\tuid?partner=dsp&uid=alpha"
        request = LoggedRequest(
            timestamp=0.0, url=url, method="GET", cookies_sent={}, status=200,
            set_cookies={}, redirect_to=None, chain_root="https://pub.example.com/",
        )
        assert [e.uid for e in _parse_syncs(request, "p1")] == ["alpha"]


class TestTrafficAnalysis:
    @pytest.fixture(scope="class")
    def traffic(self, small_dataset):
        world = small_dataset.world
        vendors = {s.skill_id: s.vendor for s in world.catalog}
        return analyze_traffic(
            small_dataset, world.org_resolver(), world.filter_list, vendors
        )

    def test_all_skills_contact_amazon(self, traffic, small_dataset):
        captured = {
            sid
            for a in small_dataset.interest_personas
            for sid in a.skill_captures
        }
        assert traffic.skills_contacting("amazon") == captured

    def test_traffic_shares_sum_to_one(self, traffic):
        assert sum(traffic.ad_tracking_traffic_share().values()) == pytest.approx(1.0)

    def test_amazon_dominates_traffic(self, traffic):
        shares = traffic.ad_tracking_traffic_share()
        amazon = sum(v for (cls, _), v in shares.items() if cls == "amazon")
        assert amazon > 0.8

    def test_top_ad_tracking_skills_ranked(self, traffic):
        top = traffic.top_ad_tracking_skills()
        counts = [len(domains) for _, domains in top]
        assert counts == sorted(counts, reverse=True)


class TestAdContent:
    def test_transcribe_covers_all_segments(self, small_dataset):
        session = small_dataset.artifacts(cat.CONNECTED_CAR).audio_sessions[0]
        transcript = transcribe_session(session)
        assert len(transcript) == len(session.segments)

    def test_extract_ads_finds_only_ads(self, small_dataset):
        session = small_dataset.artifacts(cat.CONNECTED_CAR).audio_sessions[0]
        brands = extract_audio_ads(transcribe_session(session))
        assert len(brands) == len(session.ad_segments)

    def test_audio_analysis_totals(self, small_dataset):
        analysis = analyze_audio_ads(small_dataset)
        manual = sum(
            len(s.ad_segments)
            for a in small_dataset.personas.values()
            for s in a.audio_sessions
        )
        assert analysis.total_ads == manual

    def test_skill_fractions_sum_to_one(self, small_dataset):
        analysis = analyze_audio_ads(small_dataset)
        by_skill = {}
        for (skill, _), frac in analysis.skill_fractions().items():
            by_skill[skill] = by_skill.get(skill, 0.0) + frac
        for total in by_skill.values():
            assert total == pytest.approx(1.0)

    def test_display_ads_analysis_runs(self, small_dataset):
        world = small_dataset.world
        vendors, names = {}, {}
        for p in interest_personas():
            skills = world.catalog.top_skills(p.category, 6)
            vendors[p.name] = {s.vendor for s in skills}
            names[p.name] = [s.name for s in skills]
        analysis = analyze_display_ads(small_dataset, vendors, names)
        assert analysis.total_ads > 0
        for ad in analysis.exclusive_amazon_ads:
            assert ad.impressions >= ad.iterations


class TestProfilingAnalysis:
    def test_observations_per_persona(self, small_dataset):
        analysis = analyze_profiling(small_dataset)
        personas = {o.persona for o in analysis.observations}
        assert cat.VANILLA in personas
        assert cat.HEALTH in personas

    def test_vanilla_never_has_interests(self, small_dataset):
        analysis = analyze_profiling(small_dataset)
        for label in ("installation", "interaction-1"):
            interests = analysis.interests_for(cat.VANILLA, label)
            assert not interests

    def test_missing_files_match_paper_personas(self, small_dataset):
        analysis = analyze_profiling(small_dataset)
        assert set(analysis.personas_missing_file) == {
            cat.HEALTH,
            cat.WINE,
            cat.RELIGION,
            cat.DATING,
            cat.VANILLA,
        }


class TestCompliance:
    def test_policy_availability_consistent(self, small_dataset):
        pa = policy_availability(small_dataset)
        assert pa.with_link >= pa.downloadable >= pa.mention_amazon
        assert pa.generic == pa.downloadable - pa.mention_amazon
        assert pa.link_amazon_policy <= pa.mention_amazon

    def test_compliance_tables_populated(self, small_dataset):
        world = small_dataset.world
        analysis = analyze_compliance(
            small_dataset, world.corpus, world.org_resolver(), world.org_categories()
        )
        assert "voice recording" in analysis.datatype_table
        assert "Amazon Technologies, Inc." in analysis.endpoint_table

    def test_platform_disclosure_counts(self, small_dataset):
        world = small_dataset.world
        analysis = analyze_compliance(
            small_dataset, world.corpus, world.org_resolver(), world.org_categories()
        )
        counts = analysis.platform_disclosure_counts()
        assert sum(counts.values()) == len(
            {
                sid
                for a in small_dataset.interest_personas
                for sid in a.skill_captures
            }
        )


class TestReport:
    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "333" in table

    def test_render_kv(self):
        out = render_kv({"partners": 41, "downstream": 247})
        assert "41" in out and "downstream" in out

    def test_render_distribution_skips_empty(self):
        out = render_distribution({"a": [1.0, 2.0], "b": []})
        assert "a" in out and "\nb" not in out

    def test_format_float(self):
        assert format_float(0.12345) == "0.123"
