"""Best-round selection in the training loop."""

from types import SimpleNamespace

import numpy as np

from fedcold import pipeline
from fedcold.config import RunConfig
from fedcold.errors import ConfigError

ROUNDS = 5


def small_config():
    return RunConfig(
        synthetic=True,
        synthetic_users=30,
        synthetic_items=24,
        synthetic_clusters=3,
        synthetic_feature_dim=10,
        dim=8,
        rounds=ROUNDS,
        negatives_per_positive=2,
        steps=4,
        heads=2,
        val_k=5,
        seed=3,
    )


def train_with_recalls(monkeypatch, recalls):
    """Run the loop with validation recall scripted per round (``None``: no
    evaluable user); returns the result and the item table and user matrix
    recorded after each round."""
    tables, users = [], []
    scripted = iter(recalls)
    run_round = pipeline.run_round

    def recording_run_round(table, *args):
        report = run_round(table, *args)
        tables.append(table.embeddings.copy())
        return report

    def scripted_evaluate(user_matrix, items, rows, by_user, ks):
        users.append(user_matrix.copy())
        recall = next(scripted)
        if recall is None:
            raise ConfigError("no user has a held-out item")
        return SimpleNamespace(per_k={ks[0]: SimpleNamespace(recall=recall)})

    monkeypatch.setattr(pipeline, "run_round", recording_run_round)
    monkeypatch.setattr(pipeline, "evaluate_cold", scripted_evaluate)
    cfg = small_config()
    result = pipeline.run_training(cfg, pipeline.prepare_data(cfg))
    assert len(tables) == ROUNDS
    return result, tables, users


def test_best_round_is_the_latest_maximum(monkeypatch):
    recalls = [0.2, None, 0.5, 0.5, 0.1]
    result, tables, users = train_with_recalls(monkeypatch, recalls)
    assert [r.val_recall for r in result.rounds] == recalls
    assert result.best_round == 4
    np.testing.assert_array_equal(result.best_item_table, tables[3])
    np.testing.assert_array_equal(result.best_user_table, users[3])
    assert not np.array_equal(result.best_item_table, result.item_table)


def test_best_round_without_evaluable_users_is_the_last(monkeypatch):
    result, tables, _ = train_with_recalls(monkeypatch, [None] * ROUNDS)
    assert result.best_round == ROUNDS
    np.testing.assert_array_equal(result.best_item_table, result.item_table)
    np.testing.assert_array_equal(result.best_item_table, tables[-1])
    np.testing.assert_array_equal(result.best_user_table, result.user_table)
    final = result.generator.params.tensors()
    assert result.best_denoiser.keys() == final.keys()
    for name, tensor in final.items():
        np.testing.assert_array_equal(result.best_denoiser[name], tensor)
