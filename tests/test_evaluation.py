import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcold.errors import ConfigError
from fedcold.evaluation import distribution_diagnostics, evaluate_cold
from fedcold.federation import score_items
from fedcold.numerics import stream_rng
from oracles import ndcg_at_k, rank_cold, recall_precision_at_k


def brute_recall_precision(ranking, relevant, k):
    """Independent reference: explicit top-k membership counting."""
    hits = 0
    for item in ranking[:k]:
        if item in relevant:
            hits += 1
    return hits / len(relevant), hits / k


def brute_ndcg(ranking, relevant, k):
    """Independent reference: gain list and explicit ideal ordering."""
    gains = [1.0 if item in relevant else 0.0 for item in ranking[:k]]
    dcg = sum(g / math.log2(pos + 2) for pos, g in enumerate(gains))
    ideal = sorted((1.0 for _ in relevant), reverse=True)[:k]
    idcg = sum(g / math.log2(pos + 2) for pos, g in enumerate(ideal))
    return dcg / idcg


def test_rank_cold_sorts_by_score():
    e_u = np.array([1.0, 0.0])
    ids = [10, 20, 30]
    rows = np.array([[0.5, 0.0], [2.0, 0.0], [-1.0, 0.0]])
    assert rank_cold(e_u, ids, rows) == [20, 10, 30]


def test_rank_cold_ties_ascending_id():
    e_u = np.zeros(2)  # all scores 0.5
    ids = [7, 3, 11, 5]
    rows = np.ones((4, 2))
    assert rank_cold(e_u, ids, rows) == [3, 5, 7, 11]


def test_rank_cold_singleton():
    assert rank_cold(np.ones(2), [42], np.ones((1, 2))) == [42]


def test_recall_precision_trivial_cases():
    ranking = [1, 2, 3, 4]
    recall, precision = recall_precision_at_k(ranking, {1, 2}, 2)
    assert recall == 1.0 and precision == 1.0
    recall, precision = recall_precision_at_k(ranking, {4}, 2)
    assert recall == 0.0 and precision == 0.0
    recall, precision = recall_precision_at_k(ranking, {1}, 4)
    assert recall == 1.0 and precision == 0.25


def test_ndcg_hand_values():
    assert ndcg_at_k([1, 2, 3], {1}, 3) == 1.0
    expected_rank2 = (1.0 / math.log2(3)) / 1.0
    assert abs(ndcg_at_k([2, 1, 3], {1}, 3) - expected_rank2) < 1e-12
    assert ndcg_at_k([2, 3, 1], {1}, 2) == 0.0


def test_metrics_match_brute_force_on_small_rankings():
    for n in range(1, 5):
        items = list(range(n))
        for perm in itertools.permutations(items):
            ranking = list(perm)
            for r in range(1, 2**n):
                relevant = {i for i in items if (r >> i) & 1}
                for k in range(1, n + 1):
                    got = recall_precision_at_k(ranking, relevant, k)
                    want = brute_recall_precision(ranking, relevant, k)
                    assert got == pytest.approx(want, abs=1e-12)
                    assert ndcg_at_k(ranking, relevant, k) == pytest.approx(
                        brute_ndcg(ranking, relevant, k), abs=1e-12
                    )


@given(st.integers(1, 40), st.data())
@settings(max_examples=50, deadline=None)
def test_recall_monotone_in_k(n, data):
    ranking = list(range(n))
    relevant = set(
        data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    )
    recalls = [recall_precision_at_k(ranking, relevant, k)[0] for k in range(1, n + 1)]
    assert all(b >= a for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] == 1.0  # every relevant item is somewhere in the ranking


def test_metric_validation():
    with pytest.raises(ConfigError):
        recall_precision_at_k([1], {1}, 0)
    with pytest.raises(ConfigError):
        recall_precision_at_k([1], set(), 1)
    with pytest.raises(ConfigError):
        ndcg_at_k([1], set(), 1)


def test_evaluate_cold_perfect_and_skip():
    user_embeddings = np.array([[1.0, 0.0], [0.0, 1.0]])
    cold_ids = [5, 6, 7]
    cold_rows = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 0.0]])
    test_by_user = {0: {6}, 1: {99}}  # user 1 has no cold test item
    report = evaluate_cold(
        user_embeddings, cold_ids, cold_rows, test_by_user, k_list=[1, 3]
    )
    assert report.n_users == 1
    assert report.per_k[1].recall == 1.0
    assert report.per_k[1].ndcg == 1.0
    assert report.per_k[3].precision == pytest.approx(1 / 3)


def test_evaluate_cold_macro_average():
    user_embeddings = np.array([[5.0, 0.0], [5.0, 0.0]])
    cold_ids = [0, 1]
    cold_rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
    test_by_user = {0: {0}, 1: {1}}  # user 0 hit at rank 1, user 1 at rank 2
    report = evaluate_cold(
        user_embeddings, cold_ids, cold_rows, test_by_user, k_list=[1]
    )
    assert report.n_users == 2
    assert report.per_k[1].recall == pytest.approx(0.5)


def test_evaluate_cold_requires_evaluable_users():
    with pytest.raises(ConfigError):
        evaluate_cold(np.zeros((1, 2)), [0], np.zeros((1, 2)), {0: {5}}, [1])


def reference_evaluate_cold(user_embeddings, cold_ids, cold_rows, test_by_user, k_list):
    """One full ranking per user and one oracle call per cutoff, summed in
    float64: per cutoff (recall, precision, ndcg), and the user count."""
    cold_set = set(cold_ids)
    sums = {k: np.zeros(3) for k in k_list}
    n_users = 0
    for user in sorted(test_by_user):
        relevant = test_by_user[user] & cold_set
        if not relevant:
            continue
        ranking = rank_cold(user_embeddings[user], cold_ids, cold_rows)
        n_users += 1
        for k in k_list:
            recall, precision = recall_precision_at_k(ranking, relevant, k)
            sums[k] += (recall, precision, ndcg_at_k(ranking, relevant, k))
    return {k: tuple(float(v / n_users) for v in sums[k]) for k in k_list}, n_users


def ranking_case(seed, scale):
    """Users over a cold catalogue of unsorted ids whose rows repeat, so that
    scores tie; some users have no cold test item or no test item at all."""
    rng = stream_rng(seed, "ranking-case")
    n_cold, dim = 23, 6
    distinct = rng.standard_normal((7, dim))
    cold_rows = distinct[rng.integers(0, 7, size=n_cold)]
    cold_ids = rng.permutation(1000)[:n_cold].tolist()
    users = scale * rng.standard_normal((90, dim))
    test_by_user = {}
    for user in range(90):
        if user % 9 == 0:
            test_by_user[user] = set()
        elif user % 9 == 1:
            test_by_user[user] = {2000 + user}
        else:
            size = int(rng.integers(1, 12))
            test_by_user[user] = set(rng.choice(cold_ids, size, replace=False).tolist())
    return users, cold_ids, cold_rows, test_by_user


@pytest.mark.parametrize("scale", [1.0, 1e3], ids=["plain", "saturated"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evaluate_cold_equals_per_cutoff_oracles(seed, scale):
    users, cold_ids, cold_rows, test_by_user = ranking_case(seed, scale)
    if scale > 1:  # sigmoid reads exactly 1.0 for many rows of some users
        assert max(
            int((score_items(users[u], cold_rows) == 1.0).sum()) for u in test_by_user
        ) > 3
    k_list = [1, 4, 10, len(cold_ids) + 7]
    want, n_users = reference_evaluate_cold(
        users, cold_ids, cold_rows, test_by_user, k_list
    )
    report = evaluate_cold(users, cold_ids, cold_rows, test_by_user, k_list)
    assert report.n_users == n_users == 70
    for k in k_list:
        got = report.per_k[k]
        assert (got.recall, got.precision, got.ndcg) == want[k]
        assert type(got.recall) is float and type(got.ndcg) is float


def test_evaluate_cold_chance_level_with_random_embeddings():
    rng = stream_rng(0, "chance")
    n_users, n_cold, dim = 400, 40, 16
    user_embeddings = rng.standard_normal((n_users, dim))
    cold_ids = list(range(n_cold))
    cold_rows = rng.standard_normal((n_cold, dim))
    test_by_user = {
        u: set(rng.choice(n_cold, size=3, replace=False).tolist())
        for u in range(n_users)
    }
    report = evaluate_cold(
        user_embeddings, cold_ids, cold_rows, test_by_user, k_list=[10]
    )
    chance = 10 / n_cold
    assert chance / 3 < report.per_k[10].recall < chance * 3


def test_diagnostics_identical_distributions():
    rng = stream_rng(1, "diag")
    rows = rng.standard_normal((30, 8))
    d = distribution_diagnostics(rows, rows.copy())
    assert d.centroid_distance == 0.0
    assert d.covariance_distance == 0.0


def test_diagnostics_constant_shift():
    rng = stream_rng(2, "diag-shift")
    rows = rng.standard_normal((50, 9))
    c = 0.75
    shifted = rows + c
    d = distribution_diagnostics(rows, shifted)
    assert d.centroid_distance == pytest.approx(c * math.sqrt(9), rel=1e-12)
    assert d.covariance_distance < 1e-12


def test_diagnostics_validation():
    with pytest.raises(ConfigError):
        distribution_diagnostics(np.zeros((1, 4)), np.zeros((5, 4)))
