"""Tests for the statistics module, cross-checked against SciPy.

``repro`` computes both p-value branches without ``scipy.stats``; here
SciPy stays the oracle, and both branches must match it bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.core.stats import (
    effect_size_label,
    mann_whitney_u,
    rank_biserial,
    summarize,
)


class TestMannWhitney:
    def test_matches_scipy_greater(self):
        rng = np.random.default_rng(1)
        x = rng.lognormal(-2.3, 1.5, 40)
        y = rng.lognormal(-3.5, 1.8, 40)
        ours = mann_whitney_u(x, y, alternative="greater")
        theirs = scipy_stats.mannwhitneyu(x, y, alternative="greater")
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)
        assert ours.u_statistic == pytest.approx(theirs.statistic)

    def test_matches_scipy_two_sided(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 35)
        y = rng.normal(0.4, 1, 30)
        ours = mann_whitney_u(x, y, alternative="two-sided")
        theirs = scipy_stats.mannwhitneyu(x, y, alternative="two-sided")
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_matches_scipy_less(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 25)
        y = rng.normal(0.5, 1, 25)
        ours = mann_whitney_u(x, y, alternative="less")
        theirs = scipy_stats.mannwhitneyu(x, y, alternative="less")
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_ties_handled(self):
        x = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 5.0, 6.0, 7.0]
        y = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 6.0, 6.0, 6.0]
        ours = mann_whitney_u(x, y, alternative="two-sided")
        theirs = scipy_stats.mannwhitneyu(x, y, alternative="two-sided")
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_small_samples_use_exact(self):
        x = [3.0, 4.0, 5.0]
        y = [1.0, 2.0]
        ours = mann_whitney_u(x, y, alternative="greater")
        theirs = scipy_stats.mannwhitneyu(x, y, alternative="greater", method="exact")
        assert ours.p_value == theirs.pvalue

    def test_clear_dominance_significant(self):
        x = list(range(100, 140))
        y = list(range(40))
        result = mann_whitney_u(x, y, alternative="greater")
        assert result.significant
        assert result.effect_size == pytest.approx(1.0)

    def test_identical_samples_not_significant(self):
        x = [float(i) for i in range(30)]
        result = mann_whitney_u(x, x, alternative="greater")
        assert not result.significant
        assert abs(result.effect_size) < 0.01

    def test_two_sided_at_exact_null_is_one(self):
        """Regression: at ``U == mean`` the continuity correction must
        point toward the null.  The old ``copysign(0.5, u1 - mean_u)``
        took the sign of ``+0.0`` and over-corrected, reporting p < 1
        for identical tied samples where scipy reports exactly 1.0."""
        x = [float(i) for i in range(1, 9)]  # ties force the asymptotic path
        ours = mann_whitney_u(x, x, alternative="two-sided")
        theirs = scipy_stats.mannwhitneyu(x, x, alternative="two-sided")
        assert theirs.pvalue == 1.0
        assert ours.p_value == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_invalid_alternative_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [2.0], alternative="sideways")


#: Drawing from a small discrete pool makes midrank ties common; the
#: float pool keeps samples untied.  Sizes >= 8 pin the asymptotic
#: (continuity-corrected normal) path on both sides of the comparison.
_tied_sample = st.lists(
    st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0]), min_size=8, max_size=25
)
_untied_pool = [round(0.07 * k + 0.013, 6) for k in range(200)]


class TestMannWhitneyProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        x=_tied_sample,
        y=_tied_sample,
        alternative=st.sampled_from(["greater", "less", "two-sided"]),
    )
    def test_tied_samples_match_scipy_asymptotic(self, x, y, alternative):
        if len(set(x) | set(y)) < 2:
            return  # zero-variance degenerate: scipy's z is undefined
        ours = mann_whitney_u(x, y, alternative=alternative)
        theirs = scipy_stats.mannwhitneyu(
            x, y, alternative=alternative, method="asymptotic"
        )
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9, abs=1e-12)
        assert ours.u_statistic == pytest.approx(theirs.statistic)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        alternative=st.sampled_from(["greater", "less", "two-sided"]),
    )
    def test_untied_samples_match_scipy_asymptotic(self, data, alternative):
        # Sampling distinct values without replacement guarantees no ties.
        pool = data.draw(
            st.permutations(_untied_pool).map(lambda p: p[:50])
        )
        n1 = data.draw(st.integers(min_value=9, max_value=25))
        x, y = pool[:n1], pool[n1:]
        ours = mann_whitney_u(x, y, alternative=alternative)
        theirs = scipy_stats.mannwhitneyu(
            x, y, alternative=alternative, method="asymptotic"
        )
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9, abs=1e-12)


def _scipy_norm_p_value(u1, n1, n2, tie_term, alternative):
    """The asymptotic branch as it was written on ``scipy.stats.norm``."""
    mean_u = n1 * n2 / 2.0
    n = n1 + n2
    variance = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        return 1.0
    if alternative == "greater":
        z = (u1 - mean_u - 0.5) / math.sqrt(variance)
        return float(scipy_stats.norm.sf(z))
    if alternative == "less":
        z = (u1 - mean_u + 0.5) / math.sqrt(variance)
        return float(scipy_stats.norm.cdf(z))
    z = (abs(u1 - mean_u) - 0.5) / math.sqrt(variance)
    return float(min(1.0, 2.0 * scipy_stats.norm.sf(z)))


_alternatives = st.sampled_from(["greater", "less", "two-sided"])


class TestBitEqualityWithScipy:
    """Both branches reproduce SciPy's floats exactly, not approximately."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        small=st.integers(min_value=1, max_value=7),
        large=st.integers(min_value=1, max_value=60),
        small_first=st.booleans(),
        alternative=_alternatives,
    )
    def test_exact_branch_equals_scipy_exact(
        self, data, small, large, small_first, alternative
    ):
        values = data.draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False),
                min_size=small + large,
                max_size=small + large,
                unique=True,
            )
        )
        n1 = small if small_first else large
        x, y = values[:n1], values[n1:]
        ours = mann_whitney_u(x, y, alternative=alternative)
        theirs = scipy_stats.mannwhitneyu(x, y, alternative=alternative, method="exact")
        assert ours.p_value == theirs.pvalue
        assert ours.u_statistic == theirs.statistic

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.lists(st.sampled_from([0.5 * k for k in range(12)]), min_size=1, max_size=30),
        y=st.lists(st.sampled_from([0.5 * k for k in range(12)]), min_size=1, max_size=30),
        alternative=_alternatives,
    )
    def test_asymptotic_branch_equals_norm_formula(self, x, y, alternative):
        _, counts = np.unique(x + y, return_counts=True)
        tie_term = float(sum(int(c) ** 3 - int(c) for c in counts if c > 1))
        assume(min(len(x), len(y)) >= 8 or tie_term > 0)
        ours = mann_whitney_u(x, y, alternative=alternative)
        expected = _scipy_norm_p_value(
            ours.u_statistic, len(x), len(y), tie_term, alternative
        )
        assert ours.p_value == expected


class TestRankBiserial:
    def test_bounds(self):
        assert rank_biserial(0, 10, 10) == -1.0
        assert rank_biserial(100, 10, 10) == 1.0
        assert rank_biserial(50, 10, 10) == 0.0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            rank_biserial(5, 0, 10)


class TestEffectSizeLabels:
    @pytest.mark.parametrize(
        "value,label",
        [
            (0.05, "negligible"),
            (0.2, "small"),
            (0.35, "medium"),
            (0.5, "large"),
            (-0.5, "large"),  # magnitude-based
        ],
    )
    def test_paper_banding(self, value, label):
        assert effect_size_label(value) == label


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 10.0])
        assert summary.median == 2.5
        assert summary.mean == 4.0
        assert summary.n == 4
        assert summary.maximum == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
