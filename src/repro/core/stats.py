"""Statistical machinery for the bid analyses (§5.2, §5.6).

Implements the Mann-Whitney U test with the tie-corrected normal
approximation and the rank-biserial effect size the paper reports.
A from-scratch implementation keeps the math auditable.  Tiny untied
samples, where the normal approximation is poor, use the exact null
distribution, a port of SciPy's ``mannwhitneyu(method="exact")``.  The
test suite checks both branches against SciPy bit for bit.

Only ``scipy.special`` is needed (``ndtr`` and ``binom``), and it is
imported on the first test, not with this module: ``scipy.stats`` pulls
in hundreds of modules that no ``repro`` code path uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

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


def _rank_with_ties(values: np.ndarray) -> Tuple[np.ndarray, float]:
    """Midranks plus the tie-correction term Σ(t³ - t)."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=float)
    tie_term = 0.0
    i = 0
    sorted_values = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        count = j - i + 1
        midrank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = midrank
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
    x = np.asarray(list(treatment), dtype=float)
    y = np.asarray(list(control), dtype=float)
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")

    combined = np.concatenate([x, y])
    ranks, tie_term = _rank_with_ties(combined)
    r1 = float(ranks[:n1].sum())
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
            from scipy import special

            # Continuity correction, matching scipy's use_continuity.
            # ``ndtr(-z)`` and ``ndtr(z)`` are exactly what scipy's
            # ``norm.sf(z)`` and ``norm.cdf(z)`` compute.
            if alternative == "greater":
                z = (u1 - mean_u - 0.5) / math.sqrt(variance)
                p_value = float(special.ndtr(-z))
            elif alternative == "less":
                z = (u1 - mean_u + 0.5) / math.sqrt(variance)
                p_value = float(special.ndtr(z))
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
                p_value = float(min(1.0, 2.0 * special.ndtr(-z)))

    return MannWhitneyResult(
        u_statistic=u1,
        p_value=p_value,
        effect_size=rank_biserial(u1, n1, n2),
        n_treatment=n1,
        n_control=n2,
        alternative=alternative,
    )


def _exact_p_value(u1: float, n1: int, n2: int, alternative: str) -> float:
    """P-value of ``u1`` under the exact null distribution of U.

    Ported from SciPy's ``scipy/stats/_mannwhitneyu.py`` (``_MWU`` and
    the exact branch of ``mannwhitneyu``; BSD-3-Clause, Copyright (c)
    2001-2002 Enthought, Inc. 2003, SciPy Developers).  It keeps the
    same numpy operations in the same order, so p-values match SciPy
    bit for bit.  SciPy caches the frequency table per thread; every
    entry depends only on earlier ones, so a fresh table is the same.
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
    # and the SF include the mass at k.
    kc = m * n - k
    if k < kc:
        pmfs = _u_frequencies(m, n, k)
        p = 1.0 - np.cumsum(pmfs)[k] + pmfs[k]
    else:
        p = np.cumsum(_u_frequencies(m, n, kc))[kc]
    # At U == m*n/2 the two-sided p can exceed 1.
    return float(np.clip(p * factor, 0.0, 1.0))


def _u_frequencies(m: int, n: int, maxu: int) -> np.ndarray:
    """Null probabilities of U = 0..maxu for sample sizes ``m <= n``."""
    from scipy import special

    total = special.binom(m + n, m)

    # Sigma array: sum of the divisors d of u with d <= m, minus those
    # with n < d <= m + n (index 0 unused).
    s_array = np.zeros(maxu + 1, dtype=int)
    for d in np.arange(1, m + 1):
        s_array[np.arange(d, maxu + 1, d)] += d
    for d in np.arange(n + 1, n + m + 1):
        s_array[np.arange(d, maxu + 1, d)] -= d
    s_array = s_array[1:]

    # Count configurations in uint64 for precision; switch to floats
    # only once a count outgrows it.
    configurations = np.zeros(maxu + 1, dtype=np.uint64)
    configurations_is_uint = True
    uint_max = np.iinfo(np.uint64).max
    configurations[0] = 1
    for u in np.arange(1, maxu + 1):
        coeffs = s_array[u - 1 :: -1]
        new_val = np.dot(configurations[:u], coeffs) / u
        if new_val > uint_max and configurations_is_uint:
            configurations = configurations.astype(float)
            configurations_is_uint = False
        configurations[u] = new_val
    return configurations / total


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
    statistic=np.median,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``statistic``.

    Used to put uncertainty bands on the per-persona medians/means of
    Table 5 — bid distributions are heavy-tailed, so parametric intervals
    would be misleading.
    """
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


def summarize(values: Sequence[float]) -> DistributionSummary:
    """Median, mean, count, and max of a bid sample."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return DistributionSummary(
        median=float(np.median(arr)),
        mean=float(arr.mean()),
        n=int(arr.size),
        maximum=float(arr.max()),
    )
