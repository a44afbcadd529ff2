import math
import random

import pytest
from scipy import stats as sps

from kbfg.stats import (
    ALPHAS,
    chi2_critical,
    friedman_test,
    paired_t_test,
    t_critical,
)


def test_identical_samples_no_difference():
    r = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
    assert r.no_difference and r.degenerate
    assert r.significant_at == frozenset()
    assert r.t == 0.0


def test_constant_nonzero_diffs_degenerate_significant():
    r = paired_t_test([2, 2, 2, 2], [1, 1, 1, 1])
    assert r.degenerate and not r.no_difference
    assert r.significant_at == frozenset(ALPHAS)
    assert math.isinf(r.t) and r.t > 0


def test_constant_diffs_stay_degenerate_when_their_float_sum_is_inexact():
    # ten 0.1s sum to 0.9999999999999999 one addition at a time
    r = paired_t_test([0.1] * 10, [0.0] * 10)
    assert r.degenerate and r.mean_diff == 0.1
    assert r.significant_at == frozenset(ALPHAS)


def test_five_pair_case_matches_formula_and_scipy():
    a = [0.80, 0.85, 0.90, 0.70, 0.75]
    b = [0.75, 0.80, 0.92, 0.66, 0.70]
    r = paired_t_test(a, b)
    diffs = [x - y for x, y in zip(a, b)]
    n = len(diffs)
    mean = sum(diffs) / n
    sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (n - 1))
    expected = mean / (sd / math.sqrt(n))
    assert r.t == pytest.approx(expected, abs=1e-9)
    assert r.t == pytest.approx(sps.ttest_rel(a, b).statistic, abs=1e-9)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        paired_t_test([1, 2], [1, 2, 3])


def test_random_instances_match_scipy():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(3, 12)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        r = paired_t_test(a, b)
        ref = sps.ttest_rel(a, b)
        assert r.t == pytest.approx(ref.statistic, abs=1e-9)
        # significance flags agree with scipy's p-value at both levels
        for alpha in ALPHAS:
            assert (alpha in r.significant_at) == (ref.pvalue < alpha + 1e-12)


def test_critical_tables_match_scipy():
    for alpha in ALPHAS:
        for df in range(1, 31):
            assert t_critical(df, alpha) == pytest.approx(
                sps.t.ppf(1 - alpha / 2, df), abs=1e-4)
            assert chi2_critical(df, alpha) == pytest.approx(
                sps.chi2.ppf(1 - alpha, df), abs=1e-4)
    assert t_critical(200, 0.05) == pytest.approx(sps.norm.ppf(0.975), abs=1e-4)


def oracle_friedman(matrix):
    # direct evaluation of the rank formula, independent loop structure
    n, k = len(matrix), len(matrix[0])
    rank_sums = [0.0] * k
    for row in matrix:
        pairs = sorted((v, j) for j, v in enumerate(row))
        i = 0
        while i < k:
            j = i
            while j + 1 < k and pairs[j + 1][0] == pairs[i][0]:
                j += 1
            for t in range(i, j + 1):
                rank_sums[pairs[t][1]] += (i + j) / 2 + 1
            i = j + 1
    total = 0.0
    for s in rank_sums:
        total += (s / n - (k + 1) / 2) ** 2
    return 12.0 * n / (k * (k + 1)) * total


def test_friedman_identical_methods_zero():
    m = [[0.7, 0.7, 0.7], [0.9, 0.9, 0.9]]
    assert friedman_test(m).statistic == pytest.approx(0.0)


def test_friedman_two_methods_unanimous_equals_n():
    for n in (2, 5, 9):
        m = [[0.8, 0.6] for _ in range(n)]
        assert friedman_test(m).statistic == pytest.approx(float(n))


def test_friedman_row_permutation_invariant():
    rng = random.Random(3)
    m = [[rng.random() for _ in range(4)] for _ in range(6)]
    base = friedman_test(m).statistic
    shuffled = m[:]
    rng.shuffle(shuffled)
    assert friedman_test(shuffled).statistic == pytest.approx(base)


def test_friedman_random_instances_match_oracle():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randrange(2, 9)
        k = rng.randrange(2, 6)
        # draw from a small grid so ties actually occur
        m = [[rng.choice([0.1, 0.2, 0.3, 0.4]) for _ in range(k)] for _ in range(n)]
        got = friedman_test(m).statistic
        assert got == pytest.approx(oracle_friedman(m), abs=1e-9)


def test_friedman_tie_free_matches_scipy():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(3, 8)
        k = rng.randrange(3, 6)
        m = [[rng.random() for _ in range(k)] for _ in range(n)]
        got = friedman_test(m).statistic
        ref = sps.friedmanchisquare(*[[m[i][j] for i in range(n)] for j in range(k)])
        assert got == pytest.approx(ref.statistic, abs=1e-9)


def test_friedman_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        friedman_test([[0.5, 0.6]])
    with pytest.raises(ValueError):
        friedman_test([[0.5], [0.6]])
