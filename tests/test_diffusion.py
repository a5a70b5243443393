import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcold.config import RunConfig
from fedcold.diffusion import (
    DenoisingGenerator,
    _attention,
    _attention_backward,
    _forward,
    _posterior_coeffs,
    _workspace,
    build_schedule,
    elbo_loss_fixed,
    init_denoiser,
    q_sample,
    sinusoidal_encoding,
    step_keys,
)
from fedcold.diffusion import DenoiserParams
from fedcold.errors import ConfigError
from fedcold.numerics import Adam, stream_rng
from oracles import (
    DictAdam,
    affine,
    attention_einsum,
    attention_einsum_backward,
    finite_diff_grad_check,
    fresh_workspace,
    posterior_mean_from_prediction,
    posterior_stats,
    reference_train_epochs,
)


def hand_schedule():
    # levels 0.1..0.5 over 5 steps: alpha_bar = 0.9, 0.8, 0.7, 0.6, 0.5
    return build_schedule(5, 1.0, 0.1, 0.5)


def toy_params(seed=0, width=8, heads=2, cond_dim=6):
    rng = stream_rng(seed, "toy-denoiser")
    return init_denoiser(width, heads, cond_dim, rng)


def time_keys(p, t, n=1):
    """Step ``t``'s time key on each of ``n`` rows: row ``t - 1`` of the
    step-key table over 40 steps."""
    keys = step_keys(p, sinusoidal_encoding(np.arange(1, 41), p.width))
    return np.tile(keys[t - 1], (n, 1))


def fusion(e_t, t, m, p):
    """Fused vector and per-head attention weights of one row, read from the
    denoiser's forward cache: each head's weights on its keys (heads, keys),
    ``[a0, a1]`` on the time and condition keys, or ``[a0]``, which is 1, on
    the time key alone."""
    m = None if m is None else m[None, :]
    _, cache = _forward(e_t[None, :], time_keys(p, t), m, p, fresh_workspace(p, 1, m))
    fused = cache.x[0, p.width :]
    if m is None:
        return fused, cache.a0[0, :, None]
    return fused, np.stack([cache.a0[0], cache.a1[0]], axis=-1)


def test_schedule_hand_example():
    s = hand_schedule()
    assert np.allclose(s.alpha_bar, [1.0, 0.9, 0.8, 0.7, 0.6, 0.5], atol=1e-12)
    assert abs(s.alpha[2] - 8.0 / 9.0) < 1e-12
    assert abs(s.sigma2[2] - 1.0 / 18.0) < 1e-12


def test_schedule_endpoints_and_monotonicity():
    s = build_schedule(40, 0.1, 0.001, 0.01)
    assert abs((1.0 - s.alpha_bar[1]) - 0.1 * 0.001) < 1e-12
    assert abs((1.0 - s.alpha_bar[40]) - 0.1 * 0.01) < 1e-12
    assert s.alpha_bar[0] == 1.0
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.sigma2[1] == 0.0
    assert np.all(s.alpha[1:] > 0) and np.all(s.alpha[1:] < 1)


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
def test_schedule_single_step_chain():
    # a one-step chain is refused where the config enters; called past the
    # config, the schedule refuses its NaN levels
    with pytest.raises(ConfigError, match=r"^steps must be in \[2, inf\), got 1$"):
        RunConfig(synthetic=True, steps=1).validate()
    with pytest.raises(ConfigError, match="strictly decreasing in alpha_bar"):
        build_schedule(1, 1.0, 0.25, 0.5)


@given(
    st.integers(2, 64),
    st.floats(0.01, 1.0),
    st.floats(1e-4, 0.4),
    st.floats(0.41, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_schedule_levels_linear_in_t(steps, scale, lo, hi):
    s = build_schedule(steps, scale, lo, hi)
    levels = 1.0 - s.alpha_bar[1:]
    if steps >= 3:
        second_diff = np.diff(levels, n=2)
        assert np.max(np.abs(second_diff)) < 1e-12
    assert abs(levels[0] - scale * lo) < 1e-12
    assert abs(levels[-1] - scale * hi) < 1e-12


def test_schedule_validation():
    # the schedule's arguments are checked once, by the config
    RunConfig(synthetic=True).validate()
    for bad, message in (
        (
            {"steps": 5, "noise_scale": 2.0, "noise_min": 0.1, "noise_max": 0.6},
            "noise_scale * noise_max must be < 1, got 1.2",
        ),
        (
            {"steps": 5, "noise_scale": 1.0, "noise_min": 0.5, "noise_max": 0.1},
            "noise_min must be < noise_max, got 0.5",
        ),
        ({"steps": 0}, "steps must be in [2, inf), got 0"),
        ({"steps": 1}, "steps must be in [2, inf), got 1"),
        ({"heads": 0}, "heads must be in [1, inf), got 0"),
        ({"server_lr": 0.0}, "server_lr must be in (0, inf), got 0.0"),
        ({"noise_min": 0.0}, "noise_min must be in (0, inf), got 0.0"),
    ):
        with pytest.raises(ConfigError) as refused:
            RunConfig(synthetic=True, **bad).validate()
        assert str(refused.value) == message


def test_q_sample_boundary_and_zero_noise():
    s = hand_schedule()
    rng = stream_rng(1, "qsample")
    e0 = rng.standard_normal(6)
    eps = rng.standard_normal(6)
    assert np.array_equal(q_sample(e0, 0, eps, s), e0)
    got = q_sample(e0, 3, np.zeros(6), s)
    assert np.allclose(got, np.sqrt(0.7) * e0, atol=1e-15)


def test_q_sample_moments():
    s = hand_schedule()
    rng = stream_rng(2, "qsample-moments")
    e0 = np.full(4, 2.0)
    draws = np.stack(
        [q_sample(e0, 4, rng.standard_normal(4), s) for _ in range(20000)]
    )
    assert np.allclose(draws.mean(axis=0), np.sqrt(0.6) * 2.0, atol=0.02)
    assert np.allclose(draws.var(axis=0), 0.4, atol=0.02)


def test_q_sample_vector_t():
    s = hand_schedule()
    rng = stream_rng(3, "qsample-vec")
    e0 = rng.standard_normal((3, 4))
    eps = rng.standard_normal((3, 4))
    t = np.array([1, 3, 5])
    got = q_sample(e0, t, eps, s)
    for i, ti in enumerate(t):
        assert np.allclose(got[i], q_sample(e0[i], int(ti), eps[i], s), atol=1e-15)


def test_posterior_sigma_zero_at_step_one():
    s = hand_schedule()
    e0 = np.ones(4)
    _, var = posterior_stats(e0, 0.9 * e0, 1, s)
    assert var == 0.0


def test_posterior_noiseless_identity():
    # when e_t carries no noise the posterior mean is the previous-step signal
    s = hand_schedule()
    rng = stream_rng(4, "posterior")
    e0 = rng.standard_normal(8)
    for t in range(1, 6):
        e_t = np.sqrt(s.alpha_bar[t]) * e0
        mean, _ = posterior_stats(e0, e_t, t, s)
        assert np.max(np.abs(mean - np.sqrt(s.alpha_bar[t - 1]) * e0)) < 1e-10


def test_posterior_variance_hand_value():
    s = hand_schedule()
    _, var = posterior_stats(np.ones(2), np.ones(2), 2, s)
    assert abs(var - 1.0 / 18.0) < 1e-15


def test_model_mean_matches_posterior_mean_bitwise():
    s = hand_schedule()
    rng = stream_rng(5, "mu")
    e0 = rng.standard_normal(8)
    e_t = rng.standard_normal(8)
    for t in range(1, 6):
        exact, _ = posterior_stats(e0, e_t, t, s)
        model = posterior_mean_from_prediction(e_t, t, e0, s)
        assert np.array_equal(exact, model)


def test_model_mean_linearity():
    s = hand_schedule()
    rng = stream_rng(6, "mu-lin")
    e_t = rng.standard_normal(4)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    lhs = posterior_mean_from_prediction(e_t, 3, a + b, s)
    rhs = (
        posterior_mean_from_prediction(e_t, 3, a, s)
        + posterior_mean_from_prediction(e_t, 3, b, s)
        - posterior_mean_from_prediction(e_t, 3, np.zeros(4), s)
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_model_mean_coefficients_cross_check():
    # recover both coefficients numerically and compare with the exact ones
    s = hand_schedule()
    for t in range(1, 6):
        zero = np.zeros(1)
        one = np.ones(1)
        c_noisy = posterior_mean_from_prediction(one, t, zero, s)[0]
        c_clean = posterior_mean_from_prediction(zero, t, one, s)[0]
        expected_noisy = (
            np.sqrt(s.alpha[t]) * (1 - s.alpha_bar[t - 1]) / (1 - s.alpha_bar[t])
        )
        expected_clean = (
            np.sqrt(s.alpha_bar[t - 1]) * s.beta[t] / (1 - s.alpha_bar[t])
        )
        assert abs(c_noisy - expected_noisy) < 1e-15
        assert abs(c_clean - expected_clean) < 1e-15


def test_sinusoidal_encoding_shape_and_range():
    enc = sinusoidal_encoding([1, 7, 40], 16)
    assert enc.shape == (3, 16)
    assert np.all(np.abs(enc) <= 1.0)
    assert not np.allclose(enc[0], enc[1])
    # the width's parity is checked once, where the config enters
    with pytest.raises(ConfigError, match="^dim must be even and divisible by heads, got 7$"):
        RunConfig(synthetic=True, dim=7, heads=1).validate()


def test_fusion_identical_rows_ignore_query():
    p = toy_params()
    row_value = 0.37
    p.time_w[:] = 0.0
    p.time_b[:] = row_value
    p.cond_w[:] = 0.0
    p.cond_b[:] = row_value
    rng = stream_rng(7, "fusion")
    m = rng.standard_normal(6)
    expected = (np.full(8, row_value) @ p.out_w)
    for _ in range(3):
        e_t = rng.standard_normal(8)
        fused, _ = fusion(e_t, 2, m, p)
        assert np.allclose(fused, expected, atol=1e-12)


def test_fusion_attention_weights_sum_to_one():
    p = toy_params()
    rng = stream_rng(8, "fusion-attn")
    _, attn = fusion(rng.standard_normal(8), 3, rng.standard_normal(6), p)
    assert attn.shape == (2, 2)  # heads x kv rows
    assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(attn >= 0)


def test_fusion_without_condition_uses_time_row_only():
    p = toy_params()
    rng = stream_rng(9, "fusion-none")
    e_t = rng.standard_normal(8)
    fused, attn = fusion(e_t, 2, None, p)
    assert attn.shape == (2, 1)
    assert np.allclose(attn, 1.0)
    time_row = sinusoidal_encoding(2, 8)[0] @ p.time_w + p.time_b
    assert np.allclose(fused, time_row @ p.out_w, atol=1e-12)


def test_denoiser_deterministic():
    p = toy_params()
    rng = stream_rng(10, "denoise-det")
    e_t = rng.standard_normal((4, 8))
    m = rng.standard_normal((4, 6))
    keys = time_keys(p, 3, 4)
    out1, _ = _forward(e_t, keys, m, p, fresh_workspace(p, 4, m))
    out2, _ = _forward(e_t, keys, m, p, fresh_workspace(p, 4, m))
    assert np.array_equal(out1, out2)
    assert out1.shape == (4, 8)


@pytest.mark.parametrize("conditioned", [True, False])
def test_forward_in_a_workspace_equals_a_fresh_forward_bitwise(conditioned):
    # a reverse chain runs every step in one workspace; each step must read
    # as a fresh forward does, down to the cache that _backward reads
    p = toy_params()
    rng = stream_rng(12, "forward-work")
    m = rng.standard_normal((5, 6)) if conditioned else None
    work = _workspace(5, p, None if m is None else affine(m, p.cond_w, p.cond_b))
    for t in (4, 1, 3):
        e_t = rng.standard_normal((5, 8))
        fresh = fresh_workspace(p, 5, m)
        fresh_out, fresh_cache = _forward(e_t, time_keys(p, t, 5), m, p, fresh)
        # the chain's form: one key row for every row
        out, cache = _forward(e_t, time_keys(p, t)[0], m, p, work)
        assert np.array_equal(out, fresh_out)
        # a chain's workspace holds the forward's arrays only: the cache
        # that _backward reads beside a training step's own arrays
        for field in dataclasses.fields(cache):
            got = getattr(cache, field.name)
            if got is not None:
                assert np.array_equal(got, getattr(fresh_cache, field.name)), field.name
        assert (cache.cond_key is None) == (m is None)
        assert (cache.m is None) == (m is None)


def test_elbo_gradient_check_all_params():
    p = toy_params()
    s = hand_schedule()
    rng = stream_rng(11, "elbo-grad")
    e0 = rng.standard_normal((3, 8))
    m = rng.standard_normal((3, 6))
    t = np.array([1, 3, 5])
    eps = rng.standard_normal((3, 8))

    def loss_fn(tensors):
        params = DenoiserParams.from_tensors(8, 2, 6, tensors)
        return elbo_loss_fixed(
            e0, m, t, eps, params, s, fresh_workspace(params, 3, m, s.steps)
        )

    report = finite_diff_grad_check(loss_fn, p.tensors(), h=1e-5, tolerance=1e-4)
    assert report.passed, (report.max_rel_error, report.worst_param)


def test_training_reduces_loss_trend():
    # 200 optimizer steps on a tiny two-row dataset with fixed timesteps
    s = hand_schedule()
    rng = stream_rng(14, "trend")
    gen = DenoisingGenerator(init_denoiser(8, 2, 6, rng), s, server_lr=0.01)
    e0 = rng.standard_normal((2, 8))
    m = rng.standard_normal((2, 6))
    t = np.array([3, 3])
    p = gen.params
    work = _workspace(2, p, np.empty((2, 8)), s.steps, train=True)
    losses = []
    for step in range(200):
        eps = stream_rng(15, "trend-eps", step).standard_normal((2, 8))
        loss, _ = elbo_loss_fixed(e0, m, t, eps, p, s, work)
        losses.append(loss)
        gen.opt.step(p.flat, p.tensors(), work.grad, work.scratch)
    first = np.mean(losses[:20])
    last = np.mean(losses[-20:])
    assert last < first


def test_denoiser_condition_sensitivity_after_training():
    s = hand_schedule()
    rng = stream_rng(16, "sensitivity")
    gen = DenoisingGenerator(init_denoiser(8, 2, 6, rng), s, server_lr=0.01)
    e0 = rng.standard_normal((4, 8))
    m = rng.standard_normal((4, 6))
    gen.train_epochs(e0, m, stream_rng(17, "sens-train"), epochs=50, batch_size=4)
    e_t = rng.standard_normal((1, 8))
    keys = time_keys(gen.params, 2)
    p = gen.params
    out_a, _ = _forward(e_t, keys, m[:1], p, fresh_workspace(p, 1, m[:1]))
    out_b, _ = _forward(e_t, keys, m[1:2], p, fresh_workspace(p, 1, m[1:2]))
    assert np.linalg.norm(out_a - out_b) > 1e-6


def toy_generator(schedule=None):
    return DenoisingGenerator(toy_params(), schedule or hand_schedule(), 1e-3)


def test_reverse_sample_deterministic_mode_reproducible():
    gen = toy_generator()
    m = stream_rng(18, "rev-m").standard_normal((1, 6))
    x1 = gen.generate([0], m, seed=19, mode="deterministic_mean")
    x2 = gen.generate([0], m, seed=19, mode="deterministic_mean")
    assert np.array_equal(x1, x2)
    assert x1.shape == (1, 8)


def test_reverse_sample_stochastic_variance():
    gen = toy_generator()
    m = np.tile(stream_rng(20, "rev-s-m").standard_normal(6), (100, 1))
    items = range(100)
    draws = gen.generate(items, m, seed=21, mode="stochastic")
    assert np.all(draws.var(axis=0) > 0)
    # same start noise per item, so the difference is the per-step noise
    means = gen.generate(items, m, seed=21, mode="deterministic_mean")
    assert np.all(np.any(draws != means, axis=1))


def test_reverse_sample_single_step_returns_prediction():
    # step 1's posterior mean is the prediction itself: its coefficients on
    # the noisy row and the clean estimate are exactly 0 and 1
    schedule = build_schedule(2, 1.0, 0.3, 0.9)
    c_noisy, c_clean = _posterior_coeffs(1, schedule)
    assert c_noisy.tolist() == [0.0] and c_clean.tolist() == [1.0]
    assert schedule.sigma2[1] == 0.0
    gen = toy_generator(schedule)
    m = stream_rng(22, "rev1-m").standard_normal(6)
    noise = stream_rng(23, "infer", 5).standard_normal(8)
    got = gen.generate([5], m[None, :], seed=23)
    p, m = gen.params, m[None, :]
    pred, _ = _forward(noise[None, :], time_keys(p, 2), m, p, fresh_workspace(p, 1, m))
    e_1 = posterior_mean_from_prediction(noise[None, :], 2, pred, schedule)
    expected, _ = _forward(e_1, time_keys(p, 1), m, p, fresh_workspace(p, 1, m))
    assert np.allclose(got, expected, atol=1e-12)


def test_generate_empty_and_shapes():
    gen = toy_generator()
    out = gen.generate([], None, seed=0)
    assert out.shape == (0, 8)
    conds = stream_rng(24, "gen-m").standard_normal((3, 6))
    rows = gen.generate([5, 9, 11], conds, seed=1)
    assert rows.shape == (3, 8)


def test_generate_per_item_streams():
    gen = toy_generator()
    conds = stream_rng(25, "gen-items").standard_normal((2, 6))
    both = gen.generate([4, 7], conds, seed=3)
    solo = gen.generate([7], conds[1:], seed=3)
    assert np.allclose(both[1], solo[0], atol=1e-10)
    again = gen.generate([4, 7], conds, seed=3)
    assert np.array_equal(both, again)


def reference_chain(gen, item_ids, conditions, seed, mode, stream_label="infer"):
    """The reverse chain with nothing else hoisted: a fresh draw per item per
    step, the step's row of the step-key table on every row, and the
    condition key recomputed by the forward each step."""
    p, schedule = gen.params, gen.schedule
    n, width = len(item_ids), p.width
    rngs = [stream_rng(seed, stream_label, item) for item in item_ids]
    x = np.stack([r.standard_normal(width) for r in rngs])
    encodings = sinusoidal_encoding(np.arange(1, schedule.steps + 1), width)
    keys = affine(encodings, p.time_w, p.time_b)
    for t in range(schedule.steps, 0, -1):
        work = fresh_workspace(p, n, conditions)
        pred, _ = _forward(x, np.tile(keys[t - 1], (n, 1)), conditions, p, work)
        x = posterior_mean_from_prediction(x, t, pred, schedule)
        if mode == "stochastic" and t > 1:
            sd = math.sqrt(schedule.sigma2[t])
            x = x + sd * np.stack([r.standard_normal(width) for r in rngs])
    return x


@pytest.mark.parametrize("mode", ["deterministic_mean", "stochastic"])
@pytest.mark.parametrize("conditioned", [True, False])
@pytest.mark.parametrize("n", [1, 150])
@pytest.mark.parametrize("steps", [2, 40])
def test_generate_matches_reference_chain_bitwise(mode, conditioned, n, steps):
    params = init_denoiser(64, 4, 8, stream_rng(26, "oracle-denoiser"))
    gen = DenoisingGenerator(params, build_schedule(steps, 1.0, 0.1, 0.9), 1e-3)
    conds = stream_rng(27, "oracle-m").standard_normal((n, 8)) if conditioned else None
    items = list(range(3, 3 + n))
    got = gen.generate(items, conds, seed=28, mode=mode, stream_label="oracle")
    expected = reference_chain(gen, items, conds, 28, mode, stream_label="oracle")
    assert np.array_equal(got, expected)


def chain_rows(gen, items, conds, labels, mode):
    return gen.generate(items, conds, seed=29, mode=mode, stream_label=labels)


@pytest.mark.parametrize("mode", ["deterministic_mean", "stochastic"])
def test_merged_chain_rows_do_not_depend_on_what_shares_the_chain(mode):
    # the training loop's shape: 39 cold rows on diag streams, 13 validation
    # rows on val streams, at the benchmark's width and heads
    params = init_denoiser(64, 4, 8, stream_rng(30, "merged-denoiser"))
    gen = DenoisingGenerator(params, build_schedule(40, 1.0, 0.1, 0.9), 1e-3)
    cold, val = list(range(50, 89)), list(range(10, 23))
    conds = stream_rng(31, "merged-m").standard_normal((52, 8))
    labels = ["diag3"] * 39 + ["val3"] * 13
    merged = chain_rows(gen, cold + val, conds, labels, mode)
    assert np.array_equal(merged[:39], chain_rows(gen, cold, conds[:39], "diag3", mode))
    assert np.array_equal(merged[39:], chain_rows(gen, val, conds[39:], "val3", mode))
    # any order and any company: a row follows its item, condition and label
    order = stream_rng(32, "merged-order").permutation(52)
    items = [(cold + val)[i] for i in order]
    shuffled = chain_rows(gen, items, conds[order], [labels[i] for i in order], mode)
    assert np.array_equal(shuffled, merged[order])
    # a row whose label is swapped draws from another stream
    swapped = list(labels)
    swapped[0], swapped[45] = swapped[45], swapped[0]
    moved = chain_rows(gen, cold + val, conds, swapped, mode)
    assert not np.array_equal(moved[0], merged[0])
    assert not np.array_equal(moved[45], merged[45])
    keep = np.ones(52, dtype=bool)
    keep[[0, 45]] = False
    assert np.array_equal(moved[keep], merged[keep])


@pytest.mark.parametrize("mode", ["deterministic_mean", "stochastic"])
def test_one_row_chain_matches_its_row_in_a_larger_chain(mode):
    # numpy takes a one-row product through gemv, whose last bits may differ
    # from the same row inside a larger product, so one row alone matches its
    # row in a 13-row chain to within rounding, not bitwise
    params = init_denoiser(64, 4, 8, stream_rng(33, "one-row-denoiser"))
    gen = DenoisingGenerator(params, build_schedule(40, 1.0, 0.1, 0.9), 1e-3)
    items = list(range(60, 73))
    conds = stream_rng(34, "one-row-m").standard_normal((13, 8))
    chain = chain_rows(gen, items, conds, "one-row", mode)
    for k in (0, 6, 12):
        alone = chain_rows(gen, items[k : k + 1], conds[k : k + 1], "one-row", mode)
        assert np.max(np.abs(alone[0] - chain[k])) <= 1e-12, k


def test_flat_adam_equals_dict_adam_bitwise():
    # one pass over the flat buffer rounds each weight as the per-tensor
    # pass does, at every step
    flat_params = init_denoiser(8, 2, 6, stream_rng(40, "adam-init"))
    dict_params = DenoiserParams.from_tensors(8, 2, 6, flat_params.tensors())
    flat_opt, dict_opt = Adam(0.01), DictAdam(0.01)
    grad, scratch = np.empty_like(flat_params.flat), np.empty_like(flat_params.flat)
    tensors = dict_params.tensors()
    for step in range(25):
        rng = stream_rng(41, "adam-grad", step)
        grads = {
            name: rng.standard_normal(view.shape) * 10.0 ** (step % 5 - 2)
            for name, view in tensors.items()
        }
        grad[:] = np.concatenate([grads[name].ravel() for name in tensors])
        flat_opt.step(flat_params.flat, flat_params.tensors(), grad, scratch)
        dict_opt.step(tensors, grads)
        assert np.array_equal(flat_params.flat, dict_params.flat), step


def test_adam_refuses_a_tensor_rebound_off_the_flat_buffer():
    gen = toy_generator()
    rng = stream_rng(42, "rebind")
    e0, m = rng.standard_normal((6, 8)), rng.standard_normal((6, 6))
    gen.params.time_w[:] = 0.5  # written in place: still trains
    gen.train_epochs(e0, m, stream_rng(43, "rebind-train"), epochs=1, batch_size=4)
    assert np.all(gen.params.time_w != 0.5)
    gen.params.query_w = gen.params.query_w.copy()  # rebound: would never train
    before = gen.params.flat.copy()
    with pytest.raises(ConfigError, match="'query_w' is not a view"):
        gen.train_epochs(e0, m, stream_rng(43, "rebind-train"), epochs=1, batch_size=4)
    assert np.array_equal(gen.params.flat, before)


def test_train_epochs_matches_reference_loop():
    # 4 rounds of 5 epochs over 312 rows: batches of 256 and a 56-row tail,
    # each size in its own workspace, against fresh arrays, a projection per
    # row, einsum attention and Adam over a dict; only the closed-form
    # attention rounds differently
    schedule = build_schedule(40, 1.0, 0.1, 0.9)
    params = init_denoiser(64, 4, 8, stream_rng(44, "train-init"))
    reference = DenoiserParams.from_tensors(64, 4, 8, params.tensors())
    gen = DenoisingGenerator(params, schedule, server_lr=0.001)
    opt = DictAdam(0.001)
    data = stream_rng(45, "train-rows")
    e0, m = data.standard_normal((312, 64)), data.standard_normal((312, 8))
    for round_index in range(4):
        got = gen.train_epochs(e0, m, stream_rng(46, round_index), 5, 256)
        expected = reference_train_epochs(
            reference, schedule, opt, e0, m, stream_rng(46, round_index), 5, 256
        )
        assert abs(got - expected) <= 1e-12, round_index
        assert np.max(np.abs(params.flat - reference.flat)) <= 1e-12, round_index


def test_train_epochs_with_a_one_row_tail_matches_reference_loop():
    # 257 rows in batches of 256: the tail is one row, whose products numpy
    # takes through gemv
    schedule = build_schedule(40, 1.0, 0.1, 0.9)
    params = init_denoiser(64, 4, 8, stream_rng(48, "tail-init"))
    reference = DenoiserParams.from_tensors(64, 4, 8, params.tensors())
    gen = DenoisingGenerator(params, schedule, server_lr=0.001)
    opt = DictAdam(0.001)
    data = stream_rng(49, "tail-rows")
    e0, m = data.standard_normal((257, 64)), data.standard_normal((257, 8))
    for round_index in range(2):
        got = gen.train_epochs(e0, m, stream_rng(50, round_index), 5, 256)
        expected = reference_train_epochs(
            reference, schedule, opt, e0, m, stream_rng(50, round_index), 5, 256
        )
        assert abs(got - expected) <= 1e-12, round_index
        assert np.max(np.abs(params.flat - reference.flat)) <= 1e-12, round_index


@pytest.mark.parametrize("gap", [0.0, 0.3, -7.0, 40.0, 800.0, -800.0])
@pytest.mark.parametrize("shared_time_key", [False, True])
def test_closed_form_attention_matches_einsum_softmax(gap, shared_time_key):
    # keys of unit scale, and queries whose component along each head's
    # k1 - k0 sets the score gap scale·q·(k1 - k0) to gap times a number in
    # [0.5, 1]: at ±800 a logistic through exp(-gap) would overflow
    n, h, dh = 7, 4, 16
    rng = stream_rng(47, "closed-form", str(gap))
    scale = 1.0 / math.sqrt(dh)
    time_key = rng.standard_normal(h * dh if shared_time_key else (n, h * dh))
    diff = rng.standard_normal((n, h, dh))
    norm2 = np.sum(diff * diff, axis=-1, keepdims=True)
    across = rng.standard_normal((n, h, dh))
    across -= np.sum(across * diff, axis=-1, keepdims=True) / norm2 * diff
    target = gap * rng.uniform(0.5, 1.0, (n, h, 1))
    q = across + diff * target / (scale * norm2)
    cond_key = time_key + diff.reshape(n, -1)
    keys = np.stack(np.broadcast_arrays(time_key, cond_key), axis=1).reshape(n, 2, h, dh)
    diff, heads = np.zeros((n, h * dh)), np.empty((n, h * dh))
    a0, a1 = np.ones((n, h)), np.zeros((n, h))
    d_heads = rng.standard_normal((n, h, dh))
    d_q, d_k1, d_k0 = (np.empty((n, h * dh)) for _ in range(3))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        _attention(q.reshape(n, -1), time_key, cond_key, scale, diff, a0, a1, heads)
        _attention_backward(
            d_heads.reshape(n, -1), q.reshape(n, -1), diff, a0, a1, scale, d_q, d_k1, d_k0
        )
    attn, expected = attention_einsum(q, keys, scale)
    expected_d_q, expected_d_keys = attention_einsum_backward(d_heads, q, keys, attn, scale)
    weights = np.stack([a0, a1], axis=-1)
    assert np.max(np.abs(weights - attn)) <= 1e-12
    assert np.max(np.abs(a0 + a1 - 1.0)) <= 1e-15
    # each weight keeps its relative precision, however small (short of
    # subnormal)
    np.testing.assert_allclose(weights, attn, rtol=1e-9, atol=1e-300)
    assert np.max(np.abs(heads - expected.reshape(n, -1))) <= 1e-12
    assert np.max(np.abs(d_q - expected_d_q.reshape(n, -1))) <= 1e-12
    assert np.max(np.abs(d_k0 - expected_d_keys[:, 0].reshape(n, -1))) <= 1e-12
    assert np.max(np.abs(d_k1 - expected_d_keys[:, 1].reshape(n, -1))) <= 1e-12


def test_closed_form_attention_without_condition_is_the_time_key():
    n, h, dh = 5, 2, 4
    rng = stream_rng(48, "closed-form-none")
    scale = 1.0 / math.sqrt(dh)
    q, time_key = rng.standard_normal((n, h, dh)), rng.standard_normal((n, h * dh))
    diff, heads = np.zeros((n, h * dh)), np.empty((n, h * dh))
    a0, a1 = np.ones((n, h)), np.zeros((n, h))
    d_heads = rng.standard_normal((n, h * dh))
    d_q, d_k1, d_k0 = (np.empty((n, h * dh)) for _ in range(3))
    _attention(q.reshape(n, -1), time_key, None, scale, diff, a0, a1, heads)
    _attention_backward(d_heads, q.reshape(n, -1), diff, a0, a1, scale, d_q, d_k1, d_k0)
    keys = time_key.reshape(n, 1, h, dh)
    attn, expected = attention_einsum(q, keys, scale)
    expected_d_q, expected_d_keys = attention_einsum_backward(
        d_heads.reshape(n, h, dh), q, keys, attn, scale
    )
    assert np.array_equal(attn, np.ones((n, h, 1)))
    assert np.array_equal(heads, time_key) and np.array_equal(heads, expected.reshape(n, -1))
    assert np.array_equal(d_k0, d_heads)
    assert np.array_equal(d_k0, expected_d_keys[:, 0].reshape(n, -1))
    assert not np.any(d_q) and not np.any(expected_d_q) and not np.any(d_k1)
