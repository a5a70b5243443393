import csv
import dataclasses
import re

import numpy as np
import pytest

from fedcold.config import RunConfig
from fedcold.data import Dataset
from fedcold.diffusion import _forward, init_denoiser, sinusoidal_encoding
from fedcold.errors import ConfigError, DataFormatError
from fedcold.modality import (
    encode_texts,
    hashed_token_encode,
    l2_normalize_rows,
    load_features,
)
from fedcold.numerics import stream_rng
from fedcold.pipeline import prepare_data
from oracles import affine, fresh_workspace


def make_dataset(n_items=3):
    return Dataset(
        n_users=1,
        n_items=n_items,
        interactions=np.array([[0, 0]]),
        item_ids=[f"it{i}" for i in range(n_items)],
    )


def write_features(path, rows):
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def test_load_features_round_trip(tmp_path):
    ds = make_dataset(3)
    path = tmp_path / "features.csv"
    write_features(
        path,
        [
            ("it0", "1.0", "2.0"),
            ("it2", "0.5", "-0.5"),
            ("it1", "0.0", "3.0"),
        ],
    )
    rows = load_features(str(path), ds)
    assert rows.shape[1] == 2
    assert np.allclose(rows[0], [1.0, 2.0])
    assert np.allclose(rows[1], [0.0, 3.0])
    assert np.allclose(rows[2], [0.5, -0.5])


def test_load_features_missing_items_listed(tmp_path):
    ds = make_dataset(3)
    path = tmp_path / "features.csv"
    write_features(path, [("it0", "1.0", "2.0")])
    with pytest.raises(DataFormatError, match="it1, it2"):
        load_features(str(path), ds)


def test_load_features_refuses_a_repeated_item_id(tmp_path):
    ds = make_dataset(2)
    path = tmp_path / "features.csv"
    write_features(path, [("it0", "1.0"), ("it1", "2.0"), ("it0", "5.0")])
    message = f"{path}:3: duplicate item id 'it0' (first on line 1)"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        load_features(str(path), ds)


def test_load_features_takes_the_header_from_the_first_non_blank_row(tmp_path):
    ds = make_dataset(2)
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text("item_id,f0\nit0,1.0\nit1,2.0\n")
    blank.write_text("\n\nitem_id,f0\nit0,1.0\nit1,2.0\n")
    np.testing.assert_array_equal(
        load_features(str(blank), ds), load_features(str(plain), ds)
    )


def test_load_features_inconsistent_width(tmp_path):
    ds = make_dataset(2)
    path = tmp_path / "features.csv"
    write_features(path, [("it0", "1.0", "2.0"), ("it1", "1.0")])
    with pytest.raises(DataFormatError):
        load_features(str(path), ds)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_load_features_refuses_non_finite_values(tmp_path, value):
    ds = make_dataset(3)
    path = tmp_path / "features.csv"
    write_features(
        path,
        [
            ("item_id", "f0", "f1"),
            ("it1", "1.0", "2.0"),
            ("it2", "0.5", value),
            ("it0", "inf", "1"),
        ],
    )
    # the first line holding one is named, not the first item
    with pytest.raises(DataFormatError, match=f"^{path}:3: non-finite feature value$"):
        load_features(str(path), ds)


def test_load_features_l2_normalization(tmp_path):
    inter = tmp_path / "interactions.csv"
    inter.write_text("u0,it0\nu0,it1\nu0,it2\n")
    path = tmp_path / "features.csv"
    write_features(
        path, [("it0", "3.0", "4.0"), ("it1", "0.0", "0.0"), ("it2", "0.0", "2.0")]
    )
    cfg = RunConfig(
        interactions_path=str(inter), features_path=str(path), normalize="l2"
    )
    cfg.validate()
    rows = prepare_data(cfg).features
    assert np.allclose(rows, [[0.6, 0.8], [0.0, 0.0], [0.0, 1.0]])


def test_l2_normalize_rows_norms_in_zero_one():
    rng = stream_rng(0, "l2")
    x = rng.standard_normal((5, 4))
    x[2] = 0.0
    normed = l2_normalize_rows(x)
    norms = np.linalg.norm(normed, axis=1)
    assert np.allclose(norms[[0, 1, 3, 4]], 1.0)
    assert norms[2] == 0.0


def test_hashed_encode_empty_text_is_zero():
    vec = hashed_token_encode("", dim=16, seed=0)
    assert np.all(vec == 0.0)
    assert np.linalg.norm(vec) == 0.0


def test_hashed_encode_unit_norm_and_deterministic():
    a = hashed_token_encode("Creamy Tomato Soup", dim=32, seed=7)
    b = hashed_token_encode("creamy tomato soup", dim=32, seed=7)
    c = hashed_token_encode("creamy tomato soup", dim=32, seed=8)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    assert np.array_equal(a, b)  # case folded before hashing
    assert not np.array_equal(a, c)  # seed changes buckets


def test_hashed_encode_token_order_invariant():
    a = hashed_token_encode("alpha beta gamma", dim=32, seed=1)
    b = hashed_token_encode("gamma alpha beta", dim=32, seed=1)
    assert np.allclose(a, b)


def test_encode_texts_file(tmp_path):
    ds = make_dataset(2)
    path = tmp_path / "texts.tsv"
    path.write_text("it0\thello world\nit1\tanother dish entirely\n")
    rows = encode_texts(str(path), ds, dim=16, seed=3)
    assert rows.shape == (2, 16)
    assert abs(np.linalg.norm(rows[0]) - 1.0) < 1e-12


def test_encode_texts_refuses_a_repeated_item_id(tmp_path):
    ds = make_dataset(2)
    path = tmp_path / "texts.tsv"
    path.write_text("it0\thello\nit1\tworld\n\nit1\tagain\n")
    message = f"{path}:4: duplicate item id 'it1' (first on line 2)"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        encode_texts(str(path), ds, dim=8, seed=0)


def test_encode_texts_missing_item(tmp_path):
    ds = make_dataset(2)
    path = tmp_path / "texts.tsv"
    path.write_text("it0\thello\n")
    with pytest.raises(DataFormatError, match="it1"):
        encode_texts(str(path), ds, dim=8, seed=0)


def test_project_condition_identity_and_zero():
    # the denoiser projects the raw condition into its second key/value row
    p = init_denoiser(4, 2, 4, stream_rng(4, "proj"))
    p.cond_w[:] = np.eye(4)
    p.cond_b[:] = 0.0

    def condition_row(m):
        time_key = affine(sinusoidal_encoding(1, 4), p.time_w, p.time_b)
        m = m[None, :]
        _, cache = _forward(np.zeros((1, 4)), time_key, m, p, fresh_workspace(p, 1, m))
        return cache.cond_key[0]

    m = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(condition_row(m), m)
    p.cond_b[:] = 0.5
    assert np.allclose(condition_row(np.zeros(4)), 0.5)


def test_encoder_choice_validation(tmp_path):
    inter = tmp_path / "i.csv"
    inter.write_text("0,0\n")
    texts = tmp_path / "t.tsv"
    texts.write_text("0\thello\n")
    ok = RunConfig(
        interactions_path=str(inter), texts_path=str(texts), encoder="hashed_tokens"
    )
    ok.validate()
    for bad, message in (
        ({"encoder": "resnet"}, "encoder must be one of precomputed, hashed_tokens, got 'resnet'"),
        ({"normalize": "l1"}, "normalize must be one of none, l2, got 'l1'"),
        ({"hash_dim": 0}, "hash_dim must be in [1, inf), got 0"),
    ):
        with pytest.raises(ConfigError) as refused:
            dataclasses.replace(ok, **bad).validate()
        assert str(refused.value) == message
