import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcold.config import RunConfig
from fedcold.data import generate_synthetic, split_items
from fedcold.diffusion import DenoisingGenerator, build_schedule, init_denoiser
from fedcold.errors import ConfigError
from fedcold.mlp import TwoLayerMLP
from fedcold.numerics import stream_rng
from fedcold.pipeline import PreparedData, diffusion_side, mapper_side
from fedcold.privacy import (
    attack_and_score,
    attack_side,
    fano_bound,
    gaussian_entropy,
    mi_gaussian_estimate,
    _split_leak,
    structural_similarity_difference,
)
from oracles import finite_diff_grad_check, gaussian_noise_floor, mlp_loss_and_grads


class _Identity:
    def predict(self, x):
        return np.array(x, copy=True)


class _Negate:
    def predict(self, x):
        return -np.asarray(x)


def test_inversion_identity_task_converges():
    # the inversion attacker's settings on the shared fit
    rng = stream_rng(0, "oracle-identity")
    x = rng.standard_normal((60, 8))
    attacker = TwoLayerMLP.fit(x, x, 5000, 0.1, stream_rng(0, "oracle-init"))
    mse = float(np.mean((attacker.predict(x) - x) ** 2))
    assert mse < 1e-3


def test_inversion_zero_epochs_is_untrained():
    rng = stream_rng(3, "attack")
    x = rng.standard_normal((5, 4))
    a = TwoLayerMLP.fit(x, x, 0, 0.1, stream_rng(3, "init"))
    b = TwoLayerMLP.fit(x, x, 0, 0.1, stream_rng(3, "init"))
    for name, tensor in a.tensors().items():
        np.testing.assert_array_equal(tensor, b.tensors()[name])


def test_inversion_empty_leak_set_rejected():
    # a leak fraction of 0 is refused where it enters, and any fraction in
    # (0, 1) leaks at least one item to train the attacker on
    with pytest.raises(ConfigError, match=r"leak_fraction must be in \(0, 1\), got 0.0"):
        RunConfig(synthetic=True, leak_fraction=0.0).validate()
    leaked, target = _split_leak(10, 0.01, stream_rng(0, "leak"))
    assert leaked.size == 1 and target.size == 9


def test_attack_gradient_check():
    rng = stream_rng(4, "gradcheck")
    x = rng.standard_normal((6, 5))
    y = rng.standard_normal((6, 3))
    attacker = TwoLayerMLP.fit(x, y, 0, 0.1, stream_rng(4, "init"))

    def loss_fn(params):
        return mlp_loss_and_grads(dataclasses.replace(attacker, **params), x, y)

    report = finite_diff_grad_check(
        loss_fn, attacker.tensors(), max_coords_per_param=6, rng=rng
    )
    assert report.max_rel_error < 1e-4


def test_perfect_attacker_metrics():
    rng = stream_rng(5, "perfect")
    feats = rng.standard_normal((10, 6))
    report, recon = attack_and_score(_Identity(), feats, feats, "diffusion")
    np.testing.assert_array_equal(recon, feats)  # the reconstruction it scored
    assert report.mse == 0.0 and report.mae == 0.0
    assert report.cosine == pytest.approx(1.0)
    assert report.pearson == pytest.approx(1.0)


def test_antiparallel_attacker_cosine():
    rng = stream_rng(6, "anti")
    feats = rng.standard_normal((8, 5))
    report, _ = attack_and_score(_Negate(), feats, feats, "mapper")
    assert report.cosine == pytest.approx(-1.0)


def test_zero_variance_feature_scores_pearson_zero():
    feats = np.ones((1, 4))  # constant coordinates, correlation undefined
    report, _ = attack_and_score(_Identity(), feats, feats, "m")
    assert report.pearson == 0.0
    assert report.cosine == pytest.approx(1.0)


def test_random_attacker_near_zero_pearson():
    rng = stream_rng(1, "oracle-null")
    emb = rng.standard_normal((100, 16))
    feats = rng.standard_normal((100, 24))
    attacker = TwoLayerMLP.fit(
        emb, feats, 0, 0.01, stream_rng(1, "oracle-null-init")
    )
    report, _ = attack_and_score(attacker, emb, feats, "null")
    assert abs(report.pearson) < 0.1


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_attack_report_metric_ranges(seed):
    rng = stream_rng(seed, "ranges")
    emb = rng.standard_normal((6, 4))
    feats = rng.standard_normal((6, 3))
    attacker = TwoLayerMLP.fit(emb, feats, 2, 0.5, stream_rng(seed, "r-init"))
    report, _ = attack_and_score(attacker, emb, feats, "x")
    assert -1.0 <= report.cosine <= 1.0
    assert -1.0 <= report.pearson <= 1.0
    assert report.mse >= 0.0 and report.mae >= 0.0


def test_structural_difference_identity_is_zero():
    rng = stream_rng(7, "struct")
    feats = rng.standard_normal((20, 6))
    diff = structural_similarity_difference(feats, feats.copy(), 20, rng)
    np.testing.assert_allclose(diff, 0.0, atol=1e-12)


def test_structural_difference_symmetric_zero_diagonal():
    rng = stream_rng(8, "struct2")
    truth = rng.standard_normal((25, 6))
    recon = rng.standard_normal((25, 6))
    diff = structural_similarity_difference(truth, recon, 10, rng)
    assert diff.shape == (10, 10)
    np.testing.assert_allclose(diff, diff.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(diff), 0.0, atol=1e-12)


def test_structural_difference_hand_value():
    truth = np.array([[1.0, 0.0], [0.0, 1.0]])
    recon = np.array([[1.0, 0.0], [1.0, 0.0]])
    diff = structural_similarity_difference(truth, recon, 2, stream_rng(9, "struct3"))
    np.testing.assert_allclose(diff, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-12)


def test_structural_difference_validation():
    feats = np.zeros((5, 3))
    rng = stream_rng(10, "struct-bad")
    with pytest.raises(ConfigError):
        structural_similarity_difference(feats, feats, 6, rng)


def test_fano_bound_values():
    assert fano_bound(0.0, 4) == 0.5
    assert fano_bound(0.0, 2) == 0.0
    assert fano_bound(math.log(8) - math.log(2), 8) == 0.0
    assert fano_bound(100.0, 3) == 0.0  # clamps at zero


@given(
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.integers(2, 50),
    st.integers(2, 50),
)
@settings(max_examples=100, deadline=None)
def test_fano_bound_monotone(i1, i2, m1, m2):
    lo_i, hi_i = sorted([i1, i2])
    lo_m, hi_m = sorted([m1, m2])
    assert fano_bound(hi_i, lo_m) <= fano_bound(lo_i, lo_m)
    assert fano_bound(lo_i, lo_m) <= fano_bound(lo_i, hi_m)
    assert 0.0 <= fano_bound(i1, m1) <= 1.0


def test_gaussian_noise_floor_values():
    assert gaussian_noise_floor(2, 1.0) == pytest.approx(
        math.log(2 * math.pi * math.e), abs=1e-12
    )
    base = gaussian_noise_floor(3, 0.5)
    assert gaussian_noise_floor(3, 1.0) == pytest.approx(
        base + 3 * math.log(2), abs=1e-12
    )
    with pytest.raises(ConfigError):
        gaussian_noise_floor(0, 1.0)
    with pytest.raises(ConfigError):
        gaussian_noise_floor(2, 0.0)


def test_mi_gaussian_channel_value():
    rng = stream_rng(2, "oracle-mi")
    x = rng.standard_normal((100_000, 1))
    y = x + rng.standard_normal((100_000, 1))
    assert mi_gaussian_estimate(x, y) == pytest.approx(0.5 * math.log(2), abs=0.03)


def test_mi_independent_near_zero():
    rng = stream_rng(9, "mi-null")
    x = rng.standard_normal((10_000, 3))
    y = rng.standard_normal((10_000, 4))
    assert mi_gaussian_estimate(x, y) < 0.05 * 3 * 4
    x1 = rng.standard_normal((10_000, 1))
    y1 = rng.standard_normal((10_000, 1))
    assert mi_gaussian_estimate(x1, y1) < 0.05


def test_mi_perfect_dependence_large_finite():
    rng = stream_rng(10, "mi-dep")
    x = rng.standard_normal((1000, 1))
    mi = mi_gaussian_estimate(x, x)
    assert math.isfinite(mi) and mi > 5.0


def test_mi_row_requirements():
    with pytest.raises(ConfigError):
        mi_gaussian_estimate(np.zeros((5, 3)), np.zeros((5, 4)))  # 5 < 9


def test_gaussian_entropy_matches_analytic():
    rng = stream_rng(11, "entropy")
    x = rng.standard_normal((50_000, 2))
    expected = 0.5 * 2 * math.log(2 * math.pi * math.e)  # identity covariance
    assert gaussian_entropy(x) == pytest.approx(expected, abs=0.02)
    with pytest.raises(ConfigError):
        gaussian_entropy(np.zeros((3, 2)))


def _comparison_setup():
    cfg = RunConfig(
        synthetic=True,
        synthetic_users=40,
        synthetic_items=30,
        synthetic_clusters=3,
        synthetic_feature_dim=12,
        seed=21,
    )
    dataset, features = generate_synthetic(cfg)
    split = split_items(dataset, (0.6, 0.1, 0.3), 21)
    schedule = build_schedule(steps=6, noise_scale=1.0, noise_min=0.1, noise_max=0.6)
    generator = DenoisingGenerator(
        init_denoiser(8, 2, 12, stream_rng(21, "gen-init")), schedule, server_lr=1e-3
    )
    warm_rows = stream_rng(21, "warm").standard_normal((len(split.warm_items), 8))
    mapper = TwoLayerMLP.fit(
        features[split.warm_items], warm_rows, epochs=50, lr=0.05,
        rng=stream_rng(21, "mapper-init"),
    )
    return split, features, generator, mapper


def _attack_cfg(seed, **settings):
    """The attack settings of a run at ``seed``; the setup attacks 7 items,
    so the structural sample is 5 of them."""
    return RunConfig(synthetic=True, seed=seed, mi_draws=4, struct_sample_n=5, **settings)


def _compare(split, features, generator, mapper, seed, n_clusters=None, **settings):
    """Both sides of the comparison, as ``fedcold attack`` computes them."""
    cfg = _attack_cfg(seed, **settings)
    data = PreparedData(split=split, features=features, n_clusters=n_clusters)
    return diffusion_side(cfg, data, generator), mapper_side(cfg, data, mapper)


def test_compare_pipelines_deterministic_and_labeled():
    split, features, generator, mapper = _comparison_setup()
    settings = dict(leak_fraction=0.25, attack_epochs=40, attack_lr=0.05)
    first = _compare(split, features, generator, mapper, 5, **settings)
    second = _compare(split, features, generator, mapper, 5, **settings)
    for ours, theirs in zip(first, second):
        assert ours.report == theirs.report
        assert ours.mi == theirs.mi
        assert ours.entropy == theirs.entropy
        np.testing.assert_array_equal(ours.structural, theirs.structural)
    diffusion, mapper_side = first
    assert diffusion.report.method == "diffusion"
    assert mapper_side.report.method == "mapper"
    assert diffusion.fano is None and mapper_side.fano is None
    assert math.isfinite(diffusion.mi) and math.isfinite(mapper_side.mi)
    assert diffusion.structural.shape == mapper_side.structural.shape == (5, 5)


def test_compare_pipelines_fano_with_clusters():
    split, features, generator, mapper = _comparison_setup()
    sides = _compare(
        split, features, generator, mapper, 6,
        n_clusters=3, leak_fraction=0.25, attack_epochs=10, attack_lr=0.05,
    )
    for side in sides:
        assert 0.0 <= side.fano <= 1.0


def test_compare_pipelines_leak_bounds():
    split, features, generator, mapper = _comparison_setup()
    data = PreparedData(split=split, features=features, n_clusters=None)
    # RunConfig.validate refuses a fraction outside (0, 1); _split_leak still
    # refuses these, which leave no target item
    for bad_leak in (1.0, 1.5):
        cfg = _attack_cfg(7, leak_fraction=bad_leak, attack_epochs=10, attack_lr=0.05)
        with pytest.raises(ConfigError):
            diffusion_side(cfg, data, generator)
        with pytest.raises(ConfigError):
            mapper_side(cfg, data, mapper)


def test_diffusion_side_attacks_its_own_stochastic_chains():
    # the generator's side draws the attacked rows from the "attack" streams
    # and each regeneration from its "attack-mi-diffusion-{d}" streams
    split, features, generator, _ = _comparison_setup()
    cfg = _attack_cfg(9, leak_fraction=0.25, attack_epochs=10, attack_lr=0.05)
    side = diffusion_side(
        cfg, PreparedData(split=split, features=features, n_clusters=3), generator
    )
    cold = split.cold_items
    cold_features = features[cold]

    def chain(label):
        return generator.generate(
            cold, cold_features, 9, mode="stochastic", stream_label=label
        )

    oracle = attack_side(
        cfg,
        "diffusion",
        cold_features,
        chain("attack"),
        [chain(f"attack-mi-diffusion-{d}") for d in range(4)],
        3,
    )
    assert side.report == oracle.report
    assert (side.mi, side.entropy, side.fano) == (oracle.mi, oracle.entropy, oracle.fano)
    assert side.fano is not None
    np.testing.assert_array_equal(side.structural, oracle.structural)


def test_stochastic_generation_varies_mapper_repeats():
    split, features, generator, mapper = _comparison_setup()
    cold = split.cold_items
    feats = features[cold]
    a = generator.generate(cold, feats, seed=8, mode="stochastic", stream_label="s0")
    b = generator.generate(cold, feats, seed=8, mode="stochastic", stream_label="s1")
    assert np.all(np.var(np.stack([a, b]), axis=0).mean(axis=1) > 0)
    np.testing.assert_array_equal(mapper.predict(feats), mapper.predict(feats))
