"""The training loop: the denoiser's epochs in each round and best-round
selection."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from fedcold import pipeline
from fedcold.config import RunConfig
from fedcold.diffusion import DenoisingGenerator
from fedcold.errors import ConfigError
from fedcold.federation import init_simulation
from fedcold.numerics import stream_rng

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
        tables.append(table.copy())
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


def train_counting_epochs(monkeypatch, cfg):
    """``run_training`` on ``cfg``; returns the result and the number of
    ``train_epochs`` calls."""
    calls = 0
    train_epochs = DenoisingGenerator.train_epochs

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return train_epochs(self, *args, **kwargs)

    monkeypatch.setattr(DenoisingGenerator, "train_epochs", counting)
    return pipeline.run_training(cfg, pipeline.prepare_data(cfg)), calls


def test_light_mode_cadence(monkeypatch):
    cfg = replace(small_config(), light_mode=True)
    result, _ = train_counting_epochs(monkeypatch, cfg)
    trained = [r.diffusion_loss is not None for r in result.rounds]
    assert trained == [True, False, True, False, True]
    result, _ = train_counting_epochs(monkeypatch, small_config())
    assert all(r.diffusion_loss is not None for r in result.rounds)


def test_light_mode_counts(monkeypatch):
    cfg = replace(small_config(), light_mode=True, rounds=10)
    result, calls = train_counting_epochs(monkeypatch, cfg)
    assert calls == 5
    assert sum(r.diffusion_loss is not None for r in result.rounds) == 5


def test_two_rounds_one_diffusion_event_in_light_mode(monkeypatch):
    cfg = replace(small_config(), light_mode=True, rounds=2)
    result, calls = train_counting_epochs(monkeypatch, cfg)
    r1, r2 = result.rounds
    assert calls == 1
    assert r1.diffusion_loss is not None
    assert r2.diffusion_loss is None
    # round 2 leaves the denoiser as round 1 left it
    one, _ = train_counting_epochs(monkeypatch, replace(cfg, rounds=1))
    for name, tensor in one.generator.params.tensors().items():
        np.testing.assert_array_equal(result.generator.params.tensors()[name], tensor)


def test_round_one_trains_the_denoiser_on_the_initial_warm_rows():
    cfg = replace(small_config(), rounds=1, server_epochs=3, batch_size=7)
    data = pipeline.prepare_data(cfg)
    result = pipeline.run_training(cfg, data)

    warm = data.split.warm_items
    table, _, _ = init_simulation(data.split, cfg)
    generator = pipeline.build_generator(cfg, data.features.shape[1])
    loss = generator.train_epochs(
        table[warm],
        data.features[warm],
        stream_rng(cfg.seed, "diffusion", 1),
        epochs=cfg.server_epochs,
        batch_size=cfg.batch_size,
    )
    [report] = result.rounds
    assert report.diffusion_loss == loss
    assert 0.0 <= report.generator_seconds <= report.seconds
    for name, tensor in generator.params.tensors().items():
        np.testing.assert_array_equal(result.generator.params.tensors()[name], tensor)
