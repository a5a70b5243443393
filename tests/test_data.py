import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcold.config import RunConfig
from fedcold.data import (
    Dataset,
    SplitDataset,
    _items_by_user,
    generate_synthetic,
    load_interactions,
    save_interactions,
    split_items,
)
from fedcold.errors import ConfigError, DataFormatError
from fedcold.federation import init_simulation, sample_negatives
from fedcold.numerics import stream_rng
from oracles import items_by_user_pairs, split_items_pairs, synthetic_per_user

# the run's default split
RATIOS = (RunConfig.split_warm, RunConfig.split_val, RunConfig.split_cold)


def write_rows(path, rows):
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def pairs(rows):
    """``(user, item)`` rows as the ``(N, 2)`` int64 array a dataset holds."""
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def test_load_reports_exact_counts_on_large_file(tmp_path):
    # 6549 users, 1579 items, 39740 unique rows; strided item offsets keep
    # pairs unique within each block and block 0 covers every item.
    n_users, n_items, n_rows = 6549, 1579, 39740
    path = tmp_path / "inter.csv"
    rows = []
    j = 0
    while len(rows) < n_rows:
        for u in range(n_users):
            rows.append((f"u{u}", f"i{(u + 97 * j) % n_items}"))
            if len(rows) == n_rows:
                break
        j += 1
    write_rows(path, rows)
    ds = load_interactions(str(path))
    assert ds.n_users == n_users
    assert ds.n_items == n_items
    assert len(ds.interactions) == n_rows


def test_load_drops_duplicates_with_warning(tmp_path, caplog):
    path = tmp_path / "dup.csv"
    write_rows(path, [("a", "x"), ("a", "x"), ("b", "x"), ("a", "x")])
    with caplog.at_level("WARNING"):
        ds = load_interactions(str(path))
    assert len(ds.interactions) == 2
    assert "2 duplicate" in caplog.text


def test_load_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, [("a", "x"), ("only-one-field",), ("b", "y")])
    with pytest.raises(DataFormatError, match=":2:"):
        load_interactions(str(path))


def test_load_takes_the_header_from_the_first_non_blank_row(tmp_path):
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text("user_id,item_id\na,x\nb,y\n")
    blank.write_text("\n \nuser_id,item_id\na,x\nb,y\n")
    want, got = load_interactions(str(plain)), load_interactions(str(blank))
    assert got.user_ids == want.user_ids == ["a", "b"]
    assert got.item_ids == want.item_ids == ["x", "y"]
    np.testing.assert_array_equal(got.interactions, want.interactions)


def test_load_writes_id_maps(tmp_path):
    path = tmp_path / "ids.csv"
    write_rows(path, [("alice", "pasta"), ("bob", "soup"), ("alice", "soup")])
    ds = load_interactions(str(path))
    assert ds.user_ids == ["alice", "bob"]
    assert ds.item_ids == ["pasta", "soup"]
    users_map = (tmp_path / "ids.users_idmap.csv").read_text().splitlines()
    assert users_map[0] == "original_id,dense_id"
    assert users_map[1:] == ["alice,0", "bob,1"]
    items_map = (tmp_path / "ids.items_idmap.csv").read_text().splitlines()
    assert items_map[1:] == ["pasta,0", "soup,1"]


def test_second_load_leaves_id_maps_untouched(tmp_path):
    path = tmp_path / "ids.csv"
    write_rows(path, [("alice", "pasta"), ("bob", "soup"), ("alice", "soup")])
    load_interactions(str(path))
    maps = [tmp_path / "ids.users_idmap.csv", tmp_path / "ids.items_idmap.csv"]

    def state():
        return [(m.stat().st_ino, m.stat().st_mtime_ns, m.read_bytes()) for m in maps]

    before = state()
    load_interactions(str(path))
    assert state() == before
    # a map whose bytes differ is written again, and no temporary is left
    maps[1].write_text("original_id,dense_id\nsoup,0\n")
    load_interactions(str(path))
    assert maps[1].read_bytes() == before[1][2]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ids.csv",
        "ids.items_idmap.csv",
        "ids.users_idmap.csv",
    ]


def named(d):
    """A dataset's rows with their original ids."""
    return [(d.user_ids[u], d.item_ids[i]) for u, i in d.interactions.tolist()]


def test_save_load_round_trip(tmp_path):
    ds = Dataset(
        n_users=3,
        n_items=4,
        interactions=pairs([(0, 0), (1, 2), (2, 3), (0, 1)]),
        user_ids=["ua", "ub", "uc"],
        item_ids=["w", "x", "y", "z"],
    )
    path = tmp_path / "round.csv"
    save_interactions(ds, str(path))
    assert path.read_bytes() == b"ua,w\r\nub,y\r\nuc,z\r\nua,x\r\n"
    back = load_interactions(str(path))
    assert back.n_users == ds.n_users
    assert back.n_items == ds.n_items
    assert named(back) == named(ds)
    assert back.interactions.dtype == np.int64


def test_timestamps_are_checked_and_dropped(tmp_path):
    rows = [("ua", "w"), ("ub", "y"), ("ua", "w"), ("uc", "z"), ("ua", "x")]
    plain, stamped = tmp_path / "plain.csv", tmp_path / "stamped.csv"
    write_rows(plain, rows)
    write_rows(stamped, [(u, i, f"{k}.5") for k, (u, i) in enumerate(rows)])
    want, got = load_interactions(str(plain)), load_interactions(str(stamped))
    assert np.array_equal(got.interactions, want.interactions)
    assert named(got) == named(want)
    write_rows(stamped, [("ua", "w", "soon")])
    with pytest.raises(DataFormatError, match="1: bad timestamp 'soon'"):
        load_interactions(str(stamped))


def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(
    tmp_path, monkeypatch
):
    path = tmp_path / "interactions.csv"
    path.write_bytes(b"ua,w\r\n")
    ds = Dataset(n_users=1, n_items=2, interactions=pairs([(0, 0), (0, 1)]))

    def refuse(src, dst):
        raise OSError("no room")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="no room"):
            save_interactions(ds, str(path))
    assert path.read_bytes() == b"ua,w\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["interactions.csv"]


def test_split_ten_items_gives_6_1_3():
    ds = Dataset(n_users=2, n_items=10, interactions=pairs([(0, i) for i in range(10)]))
    split = split_items(ds, RATIOS, 5)
    assert len(split.warm_items) == 6
    assert len(split.val_items) == 1
    assert len(split.cold_items) == 3


def test_split_deterministic_and_seed_sensitive():
    ds = Dataset(n_users=2, n_items=50, interactions=pairs([(0, i) for i in range(50)]))
    a = split_items(ds, RATIOS, 1)
    b = split_items(ds, RATIOS, 1)
    c = split_items(ds, RATIOS, 2)
    assert a.warm_items == b.warm_items
    assert a.cold_items == b.cold_items
    assert a.warm_items != c.warm_items


@given(st.integers(3, 200), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_split_partitions_items_property(n_items, seed):
    ds = Dataset(n_users=1, n_items=n_items, interactions=pairs([(0, 0)]))
    split = split_items(ds, RATIOS, seed)
    merged = sorted(split.warm_items + split.val_items + split.cold_items)
    assert merged == list(range(n_items))
    assert not set(split.warm_items) & set(split.cold_items)
    assert not set(split.warm_items) & set(split.val_items)


def test_split_routes_interactions_by_item():
    ds = Dataset(n_users=2, n_items=10, interactions=pairs([(0, i) for i in range(10)]))
    split = split_items(ds, RATIOS, 5)
    assert np.isin(split.train_interactions[:, 1], split.warm_items).all()
    assert np.isin(split.val_interactions[:, 1], split.val_items).all()
    assert np.isin(split.test_interactions[:, 1], split.cold_items).all()
    total = (
        len(split.train_interactions)
        + len(split.val_interactions)
        + len(split.test_interactions)
    )
    assert total == len(ds.interactions)


@st.composite
def datasets(draw):
    """Small datasets whose pairs may repeat and whose users may have no
    interactions."""
    n_users, n_items = draw(st.integers(1, 8)), draw(st.integers(3, 12))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
            max_size=40,
        )
    )
    return Dataset(n_users, n_items, pairs(rows))


# (1, 0, 0) leaves the validation and cold kinds empty, (0, 1, 0) the warm
# and cold ones; below 10 items the default ratios leave validation empty
SPLIT_RATIOS = [
    RATIOS,
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (0.5, 0.0, 0.5),
    (0.2, 0.3, 0.5),
]


@given(datasets(), st.sampled_from(SPLIT_RATIOS), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_split_and_user_index_match_the_pair_list_oracles(ds, ratios, seed):
    split = split_items(ds, ratios, seed)
    as_pairs = [tuple(row) for row in ds.interactions.tolist()]
    warm, val, cold, *kinds = split_items_pairs(as_pairs, ds.n_items, ratios, seed)
    assert (split.warm_items, split.val_items, split.cold_items) == (warm, val, cold)
    got_kinds = (
        split.train_interactions,
        split.val_interactions,
        split.test_interactions,
    )
    for got, want in zip(got_kinds, kinds):
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert [tuple(row) for row in got.tolist()] == want
        index = _items_by_user(got)
        assert index == items_by_user_pairs(want)
        assert all(type(u) is int for u in index)
        assert all(type(i) is int for items in index.values() for i in items)
    assert split.test_items_by_user() == items_by_user_pairs(kinds[2])
    assert split.val_items_by_user() == items_by_user_pairs(kinds[1])


@given(
    st.lists(
        st.tuples(
            st.sampled_from("abcd"),
            st.sampled_from("vwxyz"),
            st.none() | st.floats(-1e9, 1e9),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_load_keeps_the_first_of_each_pair_in_file_order(rows):
    # the loader as first written: one pair at a time, a duplicate and its
    # timestamp skipped
    users, items, want, want_stamps = {}, {}, [], []
    for user, item, stamp in rows:
        pair = (users.setdefault(user, len(users)), items.setdefault(item, len(items)))
        if pair not in want:
            want.append(pair)
            want_stamps.append(stamp)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "rows.csv")
        write_rows(path, [row if row[2] is not None else row[:2] for row in rows])
        if None in want_stamps and any(s is not None for s in want_stamps):
            with pytest.raises(DataFormatError, match="only some rows"):
                load_interactions(path)
            return
        ds = load_interactions(path)
    assert ds.interactions.dtype == np.int64
    assert [tuple(row) for row in ds.interactions.tolist()] == want
    assert (ds.user_ids, ds.item_ids) == (list(users), list(items))


def one_user_client(n_items, interacted, warm=None):
    """The simulation's client for one user of ``n_items`` items.

    Its positives are the interacted warm items, its negative pool the warm
    items it never interacted with.
    """
    interactions = pairs([(0, i) for i in interacted])
    ds = Dataset(n_users=1, n_items=n_items, interactions=interactions)
    warm = list(range(n_items)) if warm is None else warm
    split = SplitDataset(
        dataset=ds,
        warm_items=warm,
        val_items=[],
        cold_items=[i for i in range(n_items) if i not in warm],
        train_interactions=pairs([(0, i) for i in interacted if i in warm]),
        val_interactions=pairs([]),
        test_interactions=pairs([(0, i) for i in interacted if i not in warm]),
    )
    _, _, [client] = init_simulation(split, RunConfig(dim=4))
    return client


def draw_negatives(client, k, rng):
    """The ``k`` negatives drawn for each positive in one local pass."""
    client.rng = rng
    [negatives] = sample_negatives([client], k)
    return negatives


def test_sample_negatives_avoids_interactions():
    client = one_user_client(20, range(5))
    rng = stream_rng(0, "neg")
    for _ in range(50):
        for negs in draw_negatives(client, 5, rng):
            assert len(set(negs.tolist())) == 5
            assert all(i >= 5 for i in negs)


def test_sample_negatives_respects_candidate_pool():
    client = one_user_client(20, [0], warm=[0, 1, 2, 3, 4])
    rng = stream_rng(1, "neg-pool")
    [negs] = draw_negatives(client, 3, rng)
    assert set(negs.tolist()) <= {1, 2, 3, 4}


def test_sample_negatives_uniform_over_complement():
    client = one_user_client(12, [0, 1])
    rng = stream_rng(2, "neg-uniform")
    counts = np.zeros(12)
    draws = 20000
    for _ in range(draws // 2):  # one negative for each of the two positives
        for i in draw_negatives(client, 1, rng).ravel():
            counts[i] += 1
    assert counts[0] == 0 and counts[1] == 0
    expected = draws / 10
    # 5 sigma binomial band around uniform
    sigma = np.sqrt(draws * (1 / 10) * (9 / 10))
    assert np.all(np.abs(counts[2:] - expected) < 5 * sigma)


def test_sample_negatives_pool_too_small():
    client = one_user_client(4, [0, 1])
    rng = stream_rng(0, "neg-small")
    with pytest.raises(ConfigError):
        draw_negatives(client, 3, rng)


def synthetic(**keys):
    """A synthetic-data config; ``keys`` name RunConfig fields."""
    return RunConfig(synthetic=True, **keys)


def test_synthetic_degenerate_probabilities_exact_blocks():
    cfg = synthetic(
        synthetic_users=8,
        synthetic_items=8,
        synthetic_clusters=2,
        synthetic_p_in=1.0,
        synthetic_p_out=0.0,
        synthetic_feature_dim=4,
    )
    ds, _ = generate_synthetic(cfg)
    for u, i in ds.interactions:
        assert u % 2 == i % 2
    # every matching pair present: 4 users x 4 items per cluster, 2 clusters
    assert len(ds.interactions) == 32


def test_synthetic_count_within_binomial_band():
    cfg = synthetic(seed=3)
    ds, _ = generate_synthetic(cfg)
    n_users, n_items = cfg.synthetic_users, cfg.synthetic_items
    n_clusters = cfg.synthetic_clusters
    p_in, p_out = cfg.synthetic_p_in, cfg.synthetic_p_out
    n_pairs_in = sum(
        int(np.sum(np.arange(n_items) % n_clusters == u % n_clusters))
        for u in range(n_users)
    )
    n_pairs_out = n_users * n_items - n_pairs_in
    mean = n_pairs_in * p_in + n_pairs_out * p_out
    var = n_pairs_in * p_in * (1 - p_in) + n_pairs_out * p_out * (1 - p_out)
    assert abs(len(ds.interactions) - mean) < 5 * np.sqrt(var)


def test_synthetic_every_user_has_an_interaction():
    cfg = synthetic(
        synthetic_users=30,
        synthetic_items=12,
        synthetic_clusters=3,
        synthetic_p_in=0.0,
        synthetic_p_out=0.0,
        synthetic_feature_dim=8,
    )
    ds, _ = generate_synthetic(cfg)
    users_seen = {u for u, _ in ds.interactions}
    assert users_seen == set(range(30))
    # forced interactions stay in-cluster
    for u, i in ds.interactions:
        assert u % 3 == i % 3


@pytest.mark.parametrize("p_in, p_out", [(0.05, 0.002), (0.002, 0.0)])
@pytest.mark.parametrize("seed", [0, 1])
def test_synthetic_redraws_match_the_per_user_loop(p_in, p_out, seed):
    cfg = synthetic(
        synthetic_users=200,
        synthetic_items=20,
        synthetic_clusters=4,
        synthetic_p_in=p_in,
        synthetic_p_out=p_out,
        synthetic_feature_dim=8,
        seed=seed,
    )
    ds, features = generate_synthetic(cfg)
    interactions, want_features, empty, forced = synthetic_per_user(cfg)
    assert 0 < forced < empty  # some rows redrawn to a hit, some forced
    assert ds.interactions.dtype == interactions.dtype
    assert np.array_equal(ds.interactions, interactions)
    assert np.array_equal(features, want_features)


def test_synthetic_features_near_orthogonal_centroids():
    cfg = synthetic(
        synthetic_users=20,
        synthetic_items=40,
        synthetic_clusters=4,
        synthetic_feature_dim=16,
        synthetic_feature_noise=0.0,
        seed=1,
    )
    _, features = generate_synthetic(cfg)
    for i in range(40):
        expected = np.zeros(16)
        expected[i % 4] = 1.0
        assert np.allclose(features[i], expected)


def test_synthetic_deterministic_per_seed():
    ds1, f1 = generate_synthetic(synthetic(seed=9))
    ds2, f2 = generate_synthetic(synthetic(seed=9))
    ds3, _ = generate_synthetic(synthetic(seed=10))
    assert np.array_equal(ds1.interactions, ds2.interactions)
    assert np.array_equal(f1, f2)
    assert not np.array_equal(ds1.interactions, ds3.interactions)


def test_synthetic_interactions_are_int64_rows_in_row_major_order():
    ds, _ = generate_synthetic(synthetic(seed=4))
    assert ds.interactions.dtype == np.int64
    assert ds.interactions.shape[1] == 2
    hits = np.zeros((ds.n_users, ds.n_items), dtype=bool)
    hits[ds.interactions[:, 0], ds.interactions[:, 1]] = True
    # the row-major order of the hit matrix's nonzero entries
    assert np.array_equal(ds.interactions, np.stack(np.nonzero(hits), axis=1))


def test_synthetic_validation_errors():
    for keys, message in (
        ({"synthetic_users": 0}, "at least one user and item"),
        ({"synthetic_clusters": 0}, "n_clusters=0 must lie in"),
        ({"synthetic_clusters": 300}, "n_clusters=300 must lie in"),
        ({"synthetic_p_in": 1.5}, r"p_in=1.5 outside \[0, 1\]"),
        ({"synthetic_p_out": -0.1}, r"p_out=-0.1 outside \[0, 1\]"),
        ({"synthetic_feature_dim": 2}, "feature_dim must be >= n_clusters"),
        ({"synthetic_feature_noise": -1.0}, "feature_noise must be non-negative"),
    ):
        with pytest.raises(ConfigError, match=message):
            synthetic(**keys).validate()
