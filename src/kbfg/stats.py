"""Paired significance tests with table-based critical values.

Significance is decided against two-sided critical values at the two alpha
levels the harness reports (0.05 and 0.001).  Exact table entries cover
df <= 30; beyond that the normal approximation is used.  Friedman uses the
classic rank statistic with average ranks on ties and chi-square critical
values at k-1 degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

ALPHAS = (0.05, 0.001)

# two-sided Student t critical values, df = 1..30
_T_CRIT = {
    0.05: [
        12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912,
        2.364624, 2.306004, 2.262157, 2.228139, 2.200985, 2.178813,
        2.160369, 2.144787, 2.131450, 2.119905, 2.109816, 2.100922,
        2.093024, 2.085963, 2.079614, 2.073873, 2.068658, 2.063899,
        2.059539, 2.055529, 2.051831, 2.048407, 2.045230, 2.042272,
    ],
    0.001: [
        636.619249, 31.599055, 12.923979, 8.610302, 6.868827, 5.958816,
        5.407883, 5.041305, 4.780913, 4.586894, 4.436979, 4.317791,
        4.220832, 4.140454, 4.072765, 4.014996, 3.965126, 3.921646,
        3.883406, 3.849516, 3.819277, 3.792131, 3.767627, 3.745399,
        3.725144, 3.706612, 3.689592, 3.673906, 3.659405, 3.645959,
    ],
}
_NORMAL_CRIT = {0.05: 1.959964, 0.001: 3.290527}

# upper-tail chi-square critical values, df = 1..30
_CHI2_CRIT = {
    0.05: [
        3.841459, 5.991465, 7.814728, 9.487729, 11.070498, 12.591587,
        14.067140, 15.507313, 16.918978, 18.307038, 19.675138, 21.026070,
        22.362032, 23.684791, 24.995790, 26.296228, 27.587112, 28.869299,
        30.143527, 31.410433, 32.670573, 33.924438, 35.172462, 36.415029,
        37.652484, 38.885139, 40.113272, 41.337138, 42.556968, 43.772972,
    ],
    0.001: [
        10.827566, 13.815511, 16.266236, 18.466827, 20.515006, 22.457744,
        24.321886, 26.124482, 27.877165, 29.588298, 31.264134, 32.909490,
        34.528179, 36.123274, 37.697298, 39.252355, 40.790217, 42.312396,
        43.820196, 45.314747, 46.797038, 48.267942, 49.728232, 51.178598,
        52.619656, 54.051962, 55.476020, 56.892285, 58.301173, 59.703064,
    ],
}


def t_critical(df: int, alpha: float) -> float:
    if df < 1:
        raise ValueError("df must be >= 1")
    table = _T_CRIT[alpha]
    return table[df - 1] if df <= len(table) else _NORMAL_CRIT[alpha]


def chi2_critical(df: int, alpha: float) -> float:
    if df < 1:
        raise ValueError("df must be >= 1")
    table = _CHI2_CRIT[alpha]
    if df > len(table):
        raise ValueError(f"chi-square table covers df <= {len(table)}")
    return table[df - 1]


@dataclass(frozen=True)
class TTestResult:
    t: float                       # 0.0 when all differences vanish, +/-inf when degenerate
    significant_at: FrozenSet[float]
    degenerate: bool               # zero-variance differences
    no_difference: bool            # every difference is exactly zero
    mean_diff: float

    def to_json(self) -> dict:
        return {
            "t": None if math.isinf(self.t) else self.t,
            "significant_at": sorted(self.significant_at),
            "degenerate": self.degenerate,
            "no_difference": self.no_difference,
            "mean_diff": self.mean_diff,
        }


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sided paired t over per-fold pairs.

    All-zero differences report "no difference".  Constant non-zero
    differences have no variance to test against; by convention they are
    flagged degenerate and reported significant at both levels.
    """
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = math.fsum(diffs) / n
    var = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var <= 0.0:
        if all(d == 0 for d in diffs):
            return TTestResult(0.0, frozenset(), True, True, 0.0)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t, frozenset(ALPHAS), True, False, mean)
    t = mean / math.sqrt(var / n)
    sig = frozenset(alpha for alpha in ALPHAS if abs(t) >= t_critical(n - 1, alpha))
    return TTestResult(t, sig, False, False, mean)


def _average_ranks(row: Sequence[float]) -> List[float]:
    """Rank 1 = smallest value; tied values share the average of their ranks."""
    order = sorted(range(len(row)), key=lambda j: row[j])
    ranks = [0.0] * len(row)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and row[order[j + 1]] == row[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    significant_at: FrozenSet[float]
    mean_ranks: Tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic,
            "significant_at": sorted(self.significant_at),
            "mean_ranks": list(self.mean_ranks),
        }


def friedman_test(accuracies: Sequence[Sequence[float]]) -> FriedmanResult:
    """Friedman rank test over a datasets x methods matrix.

    chi2 = 12N/(k(k+1)) * sum_j (Rbar_j - (k+1)/2)^2 with average ranks on
    ties and no tie correction; identical methods give exactly 0 and, with
    two methods and unanimous ranks, the statistic equals N.
    """
    n = len(accuracies)
    if n < 2:
        raise ValueError("need at least 2 datasets")
    k = len(accuracies[0])
    if k < 2:
        raise ValueError("need at least 2 methods")
    if any(len(row) != k for row in accuracies):
        raise ValueError("ragged accuracy matrix")
    ranks = [_average_ranks(row) for row in accuracies]
    mean_ranks = tuple(math.fsum(col) / n for col in zip(*ranks))
    center = (k + 1) / 2
    stat = 12.0 * n / (k * (k + 1)) * math.fsum((r - center) ** 2 for r in mean_ranks)
    sig = frozenset(alpha for alpha in ALPHAS if stat >= chi2_critical(k - 1, alpha))
    return FriedmanResult(stat, sig, mean_ranks)
