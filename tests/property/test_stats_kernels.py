"""The standard-library kernels of ``core/stats.py`` against NumPy and SciPy.

``summary.json`` stores raw means, medians, maxima and p-values, so each
kernel must return the library's float bit for bit, not approximately.
NumPy and SciPy are the oracles here; the package itself uses neither.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as scipy_stats

from repro.core.stats import (
    _binom,
    _ndtr,
    _np_sum,
    mann_whitney_u,
    summarize,
)


def _bits(value: float) -> str:
    return float(value).hex()


#: The pairwise sum changes shape at 8 (eight accumulators) and 128
#: (recursive split); the sizes around both edges are always tried.
_sizes = st.one_of(
    st.sampled_from([1, 2, 7, 8, 9, 15, 16, 127, 128, 129, 255, 256, 257]),
    st.integers(min_value=1, max_value=2000),
)


@st.composite
def _mixed_magnitudes(draw):
    """Signed floats spread over 24 decades, so rounding order matters."""
    size = draw(_sizes)
    rnd = draw(st.randoms(use_true_random=False))
    return [rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-12, 12) for _ in range(size)]


class TestPairwiseSum:
    @settings(max_examples=200, deadline=None)
    @given(values=_mixed_magnitudes())
    def test_sum_and_mean_equal_numpy(self, values):
        arr = np.asarray(values, dtype=float)
        assert _bits(_np_sum(values)) == _bits(np.sum(arr))
        assert _bits(summarize(values).mean) == _bits(np.mean(arr))

    def test_signed_zeros_sum_like_numpy(self):
        for values in ([-0.0], [-0.0] * 7, [-0.0] * 9, [-0.0] * 200, [0.0, -0.0]):
            assert _bits(_np_sum(values)) == _bits(np.sum(np.asarray(values)))


class TestMedianAndMax:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_median_and_max_equal_numpy_with_nan_and_inf(self, values):
        arr = np.asarray(values, dtype=float)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            median, maximum = np.median(arr), np.max(arr)
        summary = summarize(values)
        assert _bits(summary.median) == _bits(median)
        assert _bits(summary.maximum) == _bits(maximum)

    @settings(max_examples=100, deadline=None)
    @given(values=_mixed_magnitudes())
    def test_median_equals_numpy_on_long_samples(self, values):
        assert _bits(summarize(values).median) == _bits(np.median(np.asarray(values)))


class TestNdtr:
    def test_dense_grid_and_edge_values(self):
        grid = np.linspace(-40.0, 40.0, 160_001)
        tiny = 5e-324
        edges = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, -2.2250738585072014e-308,
                 1e-300, -1e-300, math.inf, -math.inf, 1.0, -1.0, 38.0, -38.0,
                 math.sqrt(2.0), -math.sqrt(2.0), 8.0 * math.sqrt(2.0), -8.0 * math.sqrt(2.0)]
        points = np.concatenate([grid, np.asarray(edges)])
        expected = special.ndtr(points)
        mismatched = [
            float(x) for x, want in zip(points, expected) if _bits(_ndtr(float(x))) != _bits(want)
        ]
        assert mismatched == []

    def test_nan_propagates(self):
        assert math.isnan(_ndtr(math.nan))

    @settings(max_examples=2000, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=True))
    def test_any_float_equals_scipy(self, x):
        assert _bits(_ndtr(x)) == _bits(special.ndtr(x))


class TestBinom:
    def test_small_m_equals_scipy(self):
        for m in range(8):
            for n in range(400):
                assert _bits(_binom(m + n, m)) == _bits(special.binom(m + n, m)), (m, n)

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(min_value=0, max_value=7), n=st.integers(min_value=0, max_value=10**12))
    def test_large_n_equals_scipy(self, m, n):
        # Past n ~ 1e7 the numerator outgrows 1e50 and SciPy rescales.
        assert _bits(_binom(m + n, m)) == _bits(special.binom(m + n, m))


class TestExactBranchLargeSample:
    @settings(max_examples=40, deadline=None)
    @given(
        small=st.integers(min_value=1, max_value=7),
        large=st.integers(min_value=61, max_value=575),
        rnd=st.randoms(use_true_random=False),
        alternative=st.sampled_from(["greater", "less", "two-sided"]),
    )
    def test_p_value_equals_scipy_exact(self, small, large, rnd, alternative):
        """Beyond ``TestBitEqualityWithScipy``'s sizes: the exact null
        frequencies stay SciPy's up to 7 vs 575 untied values."""
        values = rnd.sample(range(10**6), small + large)
        x, y = [v / 7.0 for v in values[:small]], [v / 7.0 for v in values[small:]]
        ours = mann_whitney_u(x, y, alternative=alternative)
        theirs = scipy_stats.mannwhitneyu(x, y, alternative=alternative, method="exact")
        assert _bits(ours.p_value) == _bits(theirs.pvalue)
