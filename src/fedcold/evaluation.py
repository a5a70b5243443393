"""Cold-item ranking metrics and embedding-distribution diagnostics.

The cold protocol ranks every cold item for each user with at least one test
interaction, then macro-averages recall, precision, and NDCG at each cutoff.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .federation import score_items


@dataclass
class KMetrics:
    recall: float
    precision: float
    ndcg: float


@dataclass
class MetricsReport:
    per_k: dict[int, KMetrics]
    n_users: int


@dataclass
class DistributionDiagnostics:
    centroid_distance: float
    covariance_distance: float


def evaluate_cold(
    user_embeddings: np.ndarray,
    cold_ids: list[int],
    cold_embeddings: np.ndarray,
    test_by_user: dict[int, set[int]],
    k_list: list[int],
) -> MetricsReport:
    """Macro-averaged ranking quality over users with test interactions.

    Users whose test items are not cold ids (or with empty test sets) are
    skipped; each remaining user ranks the full cold catalogue by predicted
    score, ties broken by ascending id. The ranking is formed once per user,
    and every cutoff k is read from the ranks of its hits: recall is hits over
    relevant items, precision hits over k, and NDCG the binary-relevance
    ``1/log2(rank+1)`` discounts of the hits, added in rank order, over those
    of the ideal ranking.
    """
    ids = np.asarray(cold_ids)
    cold_set = set(cold_ids)
    top = max(k_list)
    discount = [1.0 / math.log2(rank + 1) for rank in range(1, top + 1)]
    # ideal_dcg[j]: DCG of a ranking whose first j items are hits, formed by
    # sum(), which adds with compensation from Python 3.12 on
    ideal_dcg = [sum(discount[:j]) for j in range(top + 1)]
    sums = {k: [0.0, 0.0, 0.0] for k in k_list}
    n_users = 0
    for user in sorted(test_by_user):
        relevant = test_by_user[user] & cold_set
        if not relevant:
            continue
        n_users += 1
        scores = score_items(user_embeddings[user], cold_embeddings)
        ranking = ids[np.lexsort((ids, -scores))[:top]].tolist()
        hit_ranks = [
            rank for rank, item in enumerate(ranking, start=1) if item in relevant
        ]
        # dcg[j]: the discounts of the first j hits, added in rank order
        dcg = [0.0]
        for rank in hit_ranks:
            dcg.append(dcg[-1] + discount[rank - 1])
        n_relevant = len(relevant)
        for k in k_list:
            hits = bisect.bisect_right(hit_ranks, k)
            total = sums[k]
            total[0] += hits / n_relevant
            total[1] += hits / k
            total[2] += dcg[hits] / ideal_dcg[min(n_relevant, k)]
    if n_users == 0:
        raise ConfigError("no users with cold test interactions to evaluate")
    per_k = {
        k: KMetrics(
            recall=sums[k][0] / n_users,
            precision=sums[k][1] / n_users,
            ndcg=sums[k][2] / n_users,
        )
        for k in k_list
    }
    return MetricsReport(per_k=per_k, n_users=n_users)


def distribution_diagnostics(
    warm_rows: np.ndarray, cold_rows: np.ndarray
) -> DistributionDiagnostics:
    """Centroid and covariance gaps between warm and generated embeddings.

    Centroid distance is the Euclidean gap between means; covariance distance
    is the Frobenius gap between sample covariance matrices.
    """
    if warm_rows.shape[0] < 2 or cold_rows.shape[0] < 2:
        raise ConfigError("diagnostics need at least 2 rows per side")
    centroid = float(
        np.linalg.norm(warm_rows.mean(axis=0) - cold_rows.mean(axis=0))
    )
    cov_warm = np.cov(warm_rows, rowvar=False)
    cov_cold = np.cov(cold_rows, rowvar=False)
    covariance = float(np.linalg.norm(cov_warm - cov_cold, ord="fro"))
    return DistributionDiagnostics(
        centroid_distance=centroid, covariance_distance=covariance
    )
