"""Statistical machinery for the bid analyses (§5.2, §5.6).

Implements the Mann-Whitney U test with the tie-corrected normal
approximation and the rank-biserial effect size the paper reports.
A from-scratch implementation keeps the math auditable.  Tiny untied
samples, where the normal approximation is poor, use the exact null
distribution, a port of SciPy's ``mannwhitneyu(method="exact")``.

What a campaign run calls here (``mann_whitney_u``, ``summarize``) is
standard-library Python, so a run loads neither NumPy nor SciPy.
``summary.json`` stores the raw floats, so each kernel reproduces the
library routine it replaces bit for bit: NumPy's pairwise float64 sum
for means and rank sums, Cephes ``ndtr`` (what ``scipy.special.ndtr``
runs) for the normal tail, and SciPy's integer ``binom`` loop for the
exact branch.  The test suite checks every kernel, and both p-value
branches, against NumPy and SciPy.  Only ``bootstrap_ci`` uses NumPy,
imported when it is called, and ``summarize`` when a sample's maximum is
a tie between ``0.0`` and ``-0.0`` (see ``_np_max``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import List, Sequence, Tuple

__all__ = [
    "MannWhitneyResult",
    "mann_whitney_u",
    "rank_biserial",
    "effect_size_label",
    "summarize",
    "bootstrap_ci",
]


@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of one Mann-Whitney U comparison."""

    u_statistic: float
    p_value: float
    effect_size: float  # rank-biserial, in [-1, 1]
    n_treatment: int
    n_control: int
    alternative: str

    @property
    def significant(self) -> bool:
        """The paper's significance criterion: p < 0.05."""
        return self.p_value < 0.05


def _pairwise_sum(values: List[float]) -> float:
    """NumPy's float64 pairwise sum (``pairwise_sum_DOUBLE``).

    Under 8 items a sequential sum from 0.0; up to 128, eight strided
    accumulators combined as a tree, then the tail; above that, split
    at a multiple of 8 near the middle.  ``reduce`` rather than ``sum``:
    Python 3.12's ``sum`` compensates float rounding.
    """
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        tail = n - n % 8
        r = [reduce(add, values[j:tail:8]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[tail:], head)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _np_sum(values: List[float]) -> float:
    """``np.sum``: NumPy adds the pairwise sum to the identity 0.0."""
    return 0.0 + _pairwise_sum(values)


def _rank_with_ties(values: List[float]) -> Tuple[List[float], float]:
    """Midranks plus the tie-correction term Σ(t³ - t).

    ``order`` is NumPy's ``argsort(kind="mergesort")``: a stable sort
    with NaN (the one float unequal to itself) last.
    """
    order = sorted((i for i, v in enumerate(values) if v == v), key=values.__getitem__)
    order += [i for i, v in enumerate(values) if v != v]
    ranks = [0.0] * len(values)
    tie_term = 0.0
    i = 0
    sorted_values = [values[index] for index in order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        count = j - i + 1
        midrank = (i + j) / 2.0 + 1.0
        for index in order[i : j + 1]:
            ranks[index] = midrank
        if count > 1:
            tie_term += count**3 - count
        i = j + 1
    return ranks, tie_term


def mann_whitney_u(
    treatment: Sequence[float],
    control: Sequence[float],
    alternative: str = "greater",
) -> MannWhitneyResult:
    """Mann-Whitney U test of ``treatment`` vs ``control``.

    ``alternative="greater"`` tests the paper's hypothesis that the
    interest persona's bids are stochastically larger than the control's
    (§5.2); ``"two-sided"`` is used for the Echo-vs-web comparison
    (§5.6).
    """
    if alternative not in {"greater", "less", "two-sided"}:
        raise ValueError(f"invalid alternative: {alternative}")
    x = [float(value) for value in treatment]
    y = [float(value) for value in control]
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")

    ranks, tie_term = _rank_with_ties(x + y)
    r1 = _np_sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0  # U for the treatment sample

    if min(n1, n2) < 8 and tie_term == 0:
        p_value = _exact_p_value(u1, n1, n2, alternative)
    else:
        mean_u = n1 * n2 / 2.0
        n = n1 + n2
        variance = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
        if variance <= 0:
            p_value = 1.0
        else:
            # Continuity correction, matching scipy's use_continuity.
            # ``ndtr(-z)`` and ``ndtr(z)`` are exactly what scipy's
            # ``norm.sf(z)`` and ``norm.cdf(z)`` compute.
            if alternative == "greater":
                z = (u1 - mean_u - 0.5) / math.sqrt(variance)
                p_value = _ndtr(-z)
            elif alternative == "less":
                z = (u1 - mean_u + 0.5) / math.sqrt(variance)
                p_value = _ndtr(z)
            else:
                # Correct toward the null by 0.5 on |U - mean|, as scipy
                # does.  The former ``copysign(0.5, u1 - mean_u)`` form
                # returned +0.5 at ``u1 == mean_u`` (sign of +0.0), which
                # over-corrected exactly at the null center: p came out
                # < 1 where scipy reports 1.0.  With midrank ties,
                # ``|u1 - mean_u|`` can also be < 0.5, where the old form
                # flipped the sign of z; ``sf`` of the (possibly negative)
                # corrected statistic handles both regimes like scipy.
                z = (abs(u1 - mean_u) - 0.5) / math.sqrt(variance)
                p_value = min(1.0, 2.0 * _ndtr(-z))

    return MannWhitneyResult(
        u_statistic=u1,
        p_value=p_value,
        effect_size=rank_biserial(u1, n1, n2),
        n_treatment=n1,
        n_control=n2,
        alternative=alternative,
    )


# Cephes ``ndtr.c`` (Stephen L. Moshier, as shipped in SciPy): rational
# approximations of erfc on [1, 8) (P/Q) and [8, inf) (R/S), and of erf
# on [0, 1] (T/U); the Q, S and U tables omit their leading 1.0.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = 0.707106781186547524400844362104849039


def _polevl(x: float, coef: Tuple[float, ...], monic: bool = False) -> float:
    """Cephes ``polevl`` (Horner's rule), or ``p1evl`` when ``monic``:
    the leading coefficient 1.0 is left out of ``coef``."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U, monic=True)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    y = 0.0
    if z >= -_MAXLOG:
        p, q = (_P, _Q) if x < 8.0 else (_R, _S)
        y = (math.exp(z) * _polevl(x, p)) / _polevl(x, q, monic=True)
        if a < 0:
            y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0 else 0.0  # underflow


def _ndtr(a: float) -> float:
    """Standard normal CDF, bit-equal to ``scipy.special.ndtr``.

    ``0.5 * math.erfc(-a / sqrt(2))`` differs in the last bits on
    more than half of the points in [-40, 40], so the Cephes code is
    ported as written.
    """
    if a != a:
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _binom(n: int, k: int) -> float:
    """``scipy.special.binom`` on integers with ``min(k, n - k) < 20``:
    SciPy's multiplicative loop, which rescales past 1e50."""
    if k > n / 2 and n > 0:
        k = n - k
    num = den = 1.0
    for i in range(1, k + 1):
        num *= i + n - k
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def _exact_p_value(u1: float, n1: int, n2: int, alternative: str) -> float:
    """P-value of ``u1`` under the exact null distribution of U.

    Ported from SciPy's ``scipy/stats/_mannwhitneyu.py`` (``_MWU`` and
    the exact branch of ``mannwhitneyu``; BSD-3-Clause, Copyright (c)
    2001-2002 Enthought, Inc. 2003, SciPy Developers).  It keeps the
    same float operations in the same order, so p-values match SciPy
    bit for bit wherever the frequencies do (see ``_u_frequencies``).
    """
    m, n = min(n1, n2), max(n1, n2)
    u2 = n1 * n2 - u1
    if alternative == "greater":
        u, factor = u1, 1
    elif alternative == "less":
        u, factor = u2, 1  # symmetry: SF of U2 rather than CDF of U1
    else:
        u, factor = max(u1, u2), 2
    k = int(u)

    # Symmetric survival function, summed from the left; both the CDF
    # and the SF include the mass at k.  ``reduce`` is ``cumsum(...)[-1]``.
    kc = m * n - k
    if k < kc:
        pmfs = _u_frequencies(m, n, k)
        p = 1.0 - reduce(add, pmfs) + pmfs[k]
    else:
        p = reduce(add, _u_frequencies(m, n, kc))
    # At U == m*n/2 the two-sided p can exceed 1.
    return min(max(p * factor, 0.0), 1.0)


def _u_frequencies(m: int, n: int, maxu: int) -> List[float]:
    """Null probabilities of U = 0..maxu for sample sizes ``m <= n``.

    The number of arrangements with U = u is the q^u coefficient of the
    Gaussian binomial prod_{i=1..m} (1 - q^(n+i)) / (1 - q^i), kept in
    exact integers: O(m * maxu), where SciPy's divisor-sum recurrence
    costs O(maxu**2).  That recurrence runs in float64 and is exact
    while its sums stay under 2**53, so the probabilities are SciPy's
    bit for bit there: for every m < 7 up to n = 1000 and for m = 7
    up to n = 575.  Past that SciPy's counts carry rounding error.
    """
    counts = [1] + [0] * maxu
    for i in range(1, m + 1):
        for u in range(maxu, n + i - 1, -1):  # times (1 - q^(n+i))
            counts[u] -= counts[u - n - i]
        for u in range(i, maxu + 1):  # over (1 - q^i)
            counts[u] += counts[u - i]
    total = _binom(m + n, m)
    return [count / total for count in counts]


def rank_biserial(u_treatment: float, n1: int, n2: int) -> float:
    """Rank-biserial correlation: 2U/(n1·n2) − 1.

    −1, 0, and 1 indicate stochastic subservience, equality, and
    dominance of the treatment over the control (§5.2).
    """
    if n1 <= 0 or n2 <= 0:
        raise ValueError("sample sizes must be positive")
    return 2.0 * u_treatment / (n1 * n2) - 1.0


def effect_size_label(effect: float) -> str:
    """The paper's small/medium/large banding for rank-biserial values."""
    magnitude = abs(effect)
    if magnitude >= 0.43:
        return "large"
    if magnitude >= 0.28:
        return "medium"
    if magnitude >= 0.11:
        return "small"
    return "negligible"


@dataclass(frozen=True)
class DistributionSummary:
    """Median/mean pair as reported throughout §5."""

    median: float
    mean: float
    n: int
    maximum: float


def bootstrap_ci(
    values: Sequence[float],
    statistic=None,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``statistic``.

    ``statistic`` defaults to ``np.median``.  Used to put uncertainty bands on the per-persona medians/means of
    Table 5 — bid distributions are heavy-tailed, so parametric intervals
    would be misleading.
    """
    import numpy as np

    if statistic is None:
        statistic = np.median
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    rng = np.random.default_rng(seed)
    indexes = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    stats = np.asarray([statistic(arr[idx]) for idx in indexes])
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(stats, alpha)),
        float(np.quantile(stats, 1.0 - alpha)),
    )


def _np_max(arr: List[float], ordered: List[float]) -> float:
    """``ndarray.max`` of the NaN-free sample ``arr``, sorted as ``ordered``.

    Distinct floats compare unequal except ``0.0 == -0.0``, so the top of
    the sort is the maximum's bits unless both zeros tie for it.  Which
    zero NumPy then returns depends on the SIMD lane width its reduction
    was built for on this CPU, so that case alone asks NumPy.
    """
    top = ordered[-1]
    if top == 0.0 and len({math.copysign(1.0, value) for value in arr if value == 0.0}) == 2:
        import numpy as np

        return float(np.max(np.asarray(arr, dtype=float)))
    return top


def summarize(values: Sequence[float]) -> DistributionSummary:
    """Median, mean, count, and max of a bid sample.

    Each float is bit-equal to ``np.median``, ``ndarray.mean`` and
    ``ndarray.max``; a NaN anywhere makes the median and max NaN.
    """
    arr = [float(value) for value in values]
    if not arr:
        raise ValueError("cannot summarize an empty sample")
    n = len(arr)
    ordered = sorted(value for value in arr if value == value)
    has_nan = len(ordered) < n
    # ``np.median`` is the mean of the one or two middle items.
    middle = ordered[(n - 1) // 2 : n // 2 + 1]
    return DistributionSummary(
        median=math.nan if has_nan else _np_sum(middle) / len(middle),
        mean=_np_sum(arr) / n,
        n=n,
        maximum=math.nan if has_nan else _np_max(arr, ordered),
    )
