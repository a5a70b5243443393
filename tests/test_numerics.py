import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcold.errors import ConfigError
from fedcold.numerics import (
    Adam,
    rekey,
    sigmoid,
    stream_rng,
)
from oracles import finite_diff_grad_check, sigmoid_two_branch, softmax_rows


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = stream_rng(13, "test-softmax")
    m = rng.standard_normal((5, 7)) * 3
    s = softmax_rows(m)
    assert np.allclose(np.sum(s, axis=1), 1.0, atol=1e-12)
    shifted = softmax_rows(m + 123.456)
    assert np.allclose(s, shifted, atol=1e-12)


def test_softmax_rows_extreme_values_stay_finite():
    m = np.array([[1000.0, -1000.0, 0.0]])
    s = softmax_rows(m)
    assert np.all(np.isfinite(s))
    assert abs(np.sum(s) - 1.0) < 1e-12


@given(
    st.lists(
        st.lists(st.floats(-50, 50), min_size=2, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    st.floats(-100, 100),
)
@settings(max_examples=50, deadline=None)
def test_softmax_shift_invariance_property(rows, shift):
    m = np.array(rows)
    assert np.allclose(softmax_rows(m), softmax_rows(m + shift), atol=1e-9)
    assert np.allclose(np.sum(softmax_rows(m), axis=1), 1.0, atol=1e-9)


def test_stream_rng_reproducible_and_independent():
    a1 = stream_rng(42, "alpha").standard_normal(100_000)
    a2 = stream_rng(42, "alpha").standard_normal(100_000)
    b = stream_rng(42, "beta").standard_normal(100_000)
    assert np.array_equal(a1, a2)
    r = np.corrcoef(a1, b)[0, 1]
    assert abs(r) < 0.02


def test_stream_rng_refuses_a_seed_beyond_64_bits():
    # the seed is the key's first word: 2**64 once drew what seed 0 draws
    stream_rng(2**64 - 1, "x")
    with pytest.raises(OverflowError):
        stream_rng(2**64, "x")


def test_stream_rng_distinct_paths_differ():
    x = stream_rng(7, "clients", 3, 5).standard_normal(8)
    y = stream_rng(7, "clients", 3, 6).standard_normal(8)
    z = stream_rng(8, "clients", 3, 5).standard_normal(8)
    assert not np.array_equal(x, y)
    assert not np.array_equal(x, z)


def draw_all(rng):
    """Draws through every path a stream's state touches: the 32-bit half
    word, whole 64-bit words, the Gaussian and the Laplace samplers."""
    return (
        rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
        rng.standard_normal(7).tolist(),
        rng.random(5).tolist(),
        rng.laplace(0.0, 2.0, size=3).tolist(),
        rng.integers(0, 2**32, size=1, dtype=np.uint32).tolist(),
        rng.standard_normal(2).tolist(),
    )


def philox_state(rng):
    state = rng.bit_generator.state
    words = [state["state"]["counter"], state["state"]["key"], state["buffer"]]
    rest = [state["buffer_pos"], state["has_uint32"], state["uinteger"]]
    return [w.tolist() for w in words] + rest


# what a generator may have drawn before it is re-keyed; an odd number of
# 32-bit integers leaves a cached half word, random(3) a part-used buffer
LEFTOVERS = {
    "nothing": lambda rng: None,
    "uint32": lambda rng: rng.integers(0, 2**32, size=5, dtype=np.uint32),
    "random3": lambda rng: rng.random(3),
    "normal": lambda rng: rng.standard_normal(11),
    "laplace": lambda rng: rng.laplace(0.0, 1.0, size=2),
}

paths = st.lists(
    st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=6)), max_size=4
)


@given(
    st.integers(0, 2**64 - 1),
    paths,
    st.integers(0, 2**64 - 1),
    paths,
    st.sampled_from(sorted(LEFTOVERS)),
)
@settings(max_examples=150, deadline=None)
def test_rekeyed_generator_equals_a_fresh_stream(seed, path, old_seed, old_path, left):
    rng = stream_rng(old_seed, *old_path)
    LEFTOVERS[left](rng)
    assert rekey(rng, seed, *path) is rng
    fresh = stream_rng(seed, *path)
    assert philox_state(rng) == philox_state(fresh)
    assert draw_all(rng) == draw_all(fresh)


def test_rekey_builds_a_generator_from_none():
    rng = rekey(None, 5, "client", 2, 9)
    assert draw_all(rng) == draw_all(stream_rng(5, "client", 2, 9))


def test_sigmoid_values_and_stability():
    assert abs(sigmoid(0.0) - 0.5) < 1e-15
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)
    x = np.array([-5.0, 0.0, 5.0])
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-12)


def test_sigmoid_equals_the_two_branch_form_bitwise():
    rng = stream_rng(12, "sigmoid-bits")
    edges = [0.0, -0.0, 5e-324, -5e-324, 36.7, -36.7, 710.0, -745.2, np.inf, -np.inf]
    for x in (rng.standard_normal(100_000) * 30, np.array(edges)):
        got = sigmoid(x)
        assert np.array_equal(got.view(np.uint64), sigmoid_two_branch(x).view(np.uint64))
    assert sigmoid(-0.0) == 0.5 and isinstance(sigmoid(2.0), float)


def test_grad_check_quadratic():
    rng = stream_rng(3, "quad")
    p0 = rng.standard_normal(6)

    def loss_fn(params):
        p = params["p"]
        return float(np.sum(p * p)), {"p": 2.0 * p}

    report = finite_diff_grad_check(loss_fn, {"p": p0}, h=1e-5, tolerance=1e-8)
    assert report.passed
    assert report.max_rel_error < 1e-8
    assert report.n_checked == 6


def test_grad_check_detects_wrong_gradient():
    def loss_fn(params):
        p = params["p"]
        return float(np.sum(p * p)), {"p": 3.0 * p}  # wrong on purpose

    report = finite_diff_grad_check(
        loss_fn, {"p": np.ones(3)}, h=1e-5, tolerance=1e-4
    )
    assert not report.passed


def test_grad_check_h_range_enforced():
    def loss_fn(params):
        return 0.0, {"p": np.zeros(1)}

    with pytest.raises(ConfigError):
        finite_diff_grad_check(loss_fn, {"p": np.zeros(1)}, h=1e-7)
    with pytest.raises(ConfigError):
        finite_diff_grad_check(loss_fn, {"p": np.zeros(1)}, h=1e-3)


def test_adam_reduces_quadratic_loss():
    weights = np.array([5.0, -3.0, 2.0, 0.5])
    views = {"p": weights[:3], "q": weights[3:]}
    opt = Adam(lr=0.1)
    scratch = np.empty_like(weights)
    for _ in range(300):
        opt.step(weights, views, 2.0 * weights, scratch)
    assert np.sum(weights**2) < 1e-4
