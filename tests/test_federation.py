import copy
import dataclasses
import math

import numpy as np
import pytest

from fedcold.data import (
    Dataset,
    SplitDataset,
    SyntheticSpec,
    generate_synthetic,
    split_items,
)
from fedcold.diffusion import DenoisingGenerator, build_schedule
from fedcold.errors import ConfigError
from fedcold.federation import (
    ClientUpload,
    FedConfig,
    GlobalItemTable,
    ServerState,
    UploadRows,
    aggregate,
    apply_ldp,
    bce_loss,
    diffusion_trains_this_round,
    finalize_table,
    init_simulation,
    predict_score,
    run_round,
    score_items,
    train_baseline_mapper,
    train_clients_lockstep,
)
from fedcold.mlp import TwoLayerMLP
from fedcold.modality import FeatureTable
from fedcold.numerics import finite_diff_grad_check, sigmoid, stream_rng


def client_local_train(state, table, rng, config):
    """Scalar oracle for one client's local pass, which the kernel must match.

    Per positive, one BCE-SGD step for it and each negative; item rows are
    copied on first touch so ``table`` is never written, and the returned dict
    holds the client's updated rows.
    """
    local = {}
    e_u = state.user_embedding
    lr = config.local_lr
    loss_sum = 0.0
    n_examples = 0
    k = config.negatives_per_positive
    for pos in state.warm_positives:
        if k > state.negative_pool.size:
            raise ConfigError(
                f"user {state.user_id}: negative pool too small for {k} draws"
            )
        negatives = rng.choice(state.negative_pool, size=k, replace=False)
        for item, y in ((int(pos), 1.0), *((int(n), 0.0) for n in negatives)):
            row = local.get(item)
            if row is None:
                row = table[item].copy()
                local[item] = row
            y_hat = sigmoid(float(np.dot(e_u, row)))
            loss_sum += bce_loss(y, y_hat)
            n_examples += 1
            g = y_hat - y
            grad_user = g * row
            row -= lr * g * e_u
            e_u -= lr * grad_user
    mean_loss = loss_sum / n_examples if n_examples else 0.0
    return local, mean_loss


def upload_rows(rows):
    """``UploadRows`` holding copies of a dict's rows."""
    ids = sorted(rows)
    return UploadRows(np.array(ids, dtype=np.int64), np.stack([rows[i] for i in ids]))


def small_setup(seed=0, n_users=12, n_items=15, dim=8):
    spec = SyntheticSpec(
        n_users=n_users,
        n_items=n_items,
        n_clusters=3,
        p_in=0.6,
        p_out=0.05,
        feature_dim=6,
        seed=seed,
    )
    dataset, features = generate_synthetic(spec)
    split = split_items(dataset, seed=seed)
    config = FedConfig(rounds=3, negatives_per_positive=2, dim=dim)
    server, clients = init_simulation(split, config, seed)
    table = FeatureTable(dim=6, rows=features)
    return split, config, server, clients, table


def make_generator(dim, cond_dim, seed=0):
    schedule = build_schedule(5, 1.0, 0.1, 0.5)
    return DenoisingGenerator(
        dim, 2, cond_dim, schedule, server_lr=0.01, rng=stream_rng(seed, "gen")
    )


def test_predict_score_values():
    zero = np.zeros(4)
    assert predict_score(zero, np.ones(4)) == 0.5
    big = np.full(4, 10.0)
    assert predict_score(big, big) > 0.999999
    assert predict_score(big, -big) < 1e-6


def test_score_items_matches_scalar():
    rng = stream_rng(1, "score")
    e_u = rng.standard_normal(6)
    rows = rng.standard_normal((5, 6))
    vec = score_items(e_u, rows)
    for i in range(5):
        assert abs(vec[i] - predict_score(e_u, rows[i])) < 1e-12


def test_bce_loss_values():
    assert abs(bce_loss(1.0, 0.5) - math.log(2.0)) < 1e-12
    assert abs(bce_loss(0.0, 0.5) - math.log(2.0)) < 1e-12
    assert bce_loss(1.0, 0.0) < 30  # clamped away from log(0)


def test_client_gradient_matches_finite_differences():
    rng = stream_rng(2, "client-grad")
    e_i = rng.standard_normal(6)
    y = 1.0

    def loss_fn(params):
        e_u = params["e_u"]
        y_hat = 1.0 / (1.0 + np.exp(-float(np.dot(e_u, e_i))))
        loss = bce_loss(y, y_hat)
        return loss, {"e_u": (y_hat - y) * e_i}

    report = finite_diff_grad_check(
        loss_fn, {"e_u": rng.standard_normal(6)}, h=1e-5, tolerance=1e-6
    )
    assert report.passed, report.max_rel_error


def one_user_toy():
    ds = Dataset(n_users=1, n_items=2, interactions=[(0, 0)])
    split = SplitDataset(
        dataset=ds,
        warm_items=[0, 1],
        val_items=[],
        cold_items=[],
        train_interactions=[(0, 0)],
        val_interactions=[],
        test_interactions=[],
    )
    config = FedConfig(rounds=1, negatives_per_positive=1, dim=4)
    server, clients = init_simulation(split, config, 7)
    return split, config, server, clients


def test_one_epoch_decreases_training_loss():
    _, config, server, clients = one_user_toy()
    client = clients[0]
    assert list(client.warm_positives) == [0]
    assert list(client.negative_pool) == [1]  # only possible negative
    table = server.table.embeddings

    def current_loss():
        pos = bce_loss(1.0, predict_score(client.user_embedding, table[0]))
        neg = bce_loss(0.0, predict_score(client.user_embedding, table[1]))
        return (pos + neg) / 2

    before = current_loss()
    [rows], [reported] = train_clients_lockstep(
        [client], table, [stream_rng(7, "client", 1, 0)], config
    )
    for item, row in rows.items():
        table[item] = row
    after = current_loss()
    assert after < before
    # running loss is logged per example pre-update; near ln 2 at tiny init
    assert abs(reported - math.log(2.0)) < 1e-3


def test_client_touches_only_positives_and_negatives():
    split, config, server, clients, _ = small_setup()
    client = next(c for c in clients if c.warm_positives.size > 0)
    rng = stream_rng(0, "client", 1, client.user_id)
    [rows], _ = train_clients_lockstep([client], server.table.embeddings, [rng], config)
    touched = set(rows)
    allowed = set(int(i) for i in client.warm_positives) | set(
        int(i) for i in client.negative_pool
    )
    assert touched <= allowed
    assert set(int(i) for i in client.warm_positives) <= touched
    cold = set(split.cold_items)
    assert not touched & cold


def test_client_upload_has_no_user_embedding_field():
    field_names = {f.name for f in dataclasses.fields(ClientUpload)}
    assert field_names == {"user_id", "rows"}


def test_apply_ldp_zero_is_identity():
    rows = upload_rows({3: np.ones(4), 1: np.zeros(4)})
    out = apply_ldp(rows, 0.0, stream_rng(0, "ldp"))
    assert out is rows


def test_apply_ldp_noise_variance():
    rng = stream_rng(1, "ldp-var")
    rows = upload_rows({0: np.zeros(200_000)})
    out = apply_ldp(rows, 2.0, rng)
    noise = out[0]
    assert abs(np.var(noise) - 8.0) / 8.0 < 0.03
    assert abs(np.mean(noise)) < 0.05


def test_apply_ldp_deterministic():
    rows = {0: np.ones(8), 5: np.zeros(8)}
    a = apply_ldp(upload_rows(rows), 1.0, stream_rng(3, "ldp-det"))
    b = apply_ldp(upload_rows(rows), 1.0, stream_rng(3, "ldp-det"))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[5], b[5])


def test_aggregate_mean_and_carry_over():
    table = GlobalItemTable(embeddings=np.zeros((4, 3)))
    table.embeddings[3] = 9.0
    uploads = [
        ClientUpload(
            user_id=1, rows=upload_rows({0: np.full(3, 2.0), 1: np.full(3, 4.0)})
        ),
        ClientUpload(user_id=0, rows=upload_rows({0: np.full(3, 6.0)})),
    ]
    out = aggregate(table, uploads)
    assert np.allclose(out.embeddings[0], 4.0)  # mean of 2 and 6
    assert np.allclose(out.embeddings[1], 4.0)  # single uploader copied
    assert np.allclose(out.embeddings[3], 9.0)  # untouched row carried over


def test_aggregate_permutation_invariant_exactly():
    rng = stream_rng(4, "agg-perm")
    table = GlobalItemTable(embeddings=rng.standard_normal((3, 5)))
    ups = [
        ClientUpload(user_id=u, rows=upload_rows({1: rng.standard_normal(5)}))
        for u in range(7)
    ]
    out1 = aggregate(table, ups)
    out2 = aggregate(table, list(reversed(ups)))
    assert np.array_equal(out1.embeddings, out2.embeddings)


def test_aggregate_equals_mean_of_stack_bitwise():
    rng = stream_rng(5, "agg-mean")
    table = GlobalItemTable(embeddings=rng.standard_normal((6, 7)))
    uploads = [
        ClientUpload(
            user_id=u,
            rows=upload_rows(
                {i: rng.standard_normal(7) for i in range(6) if (u + i) % 4 != 0}
            ),
        )
        for u in range(9)
    ]
    out = aggregate(table, uploads)
    for item in range(6):
        rows = [up.rows[item] for up in uploads if item in up.rows]
        assert len(rows) >= 3
        assert np.array_equal(out.embeddings[item], np.mean(np.stack(rows), axis=0))


def oracle_uploads(clients, table, config, seed, round_index):
    """Scalar-oracle rows and losses, with one noise draw per row by item."""
    rows, losses = [], []
    for c in clients:
        rng = stream_rng(seed, "client", round_index, c.user_id)
        local, loss = client_local_train(c, table, rng, config)
        if config.ldp_scale:
            for item in sorted(local):
                local[item] = local[item] + rng.laplace(
                    0.0, config.ldp_scale, size=local[item].shape
                )
        rows.append(local)
        losses.append(loss)
    return rows, losses


def assert_rows_equal(got, want):
    assert list(got) == sorted(want)
    for item in want:
        assert np.array_equal(got[item], want[item])


@pytest.mark.parametrize("seed", [0, 3, 7, 12])
@pytest.mark.parametrize("ldp_scale", [0.0, 0.7])
def test_lockstep_kernel_equals_scalar_oracle_bitwise(seed, ldp_scale):
    split, config, server, clients, _ = small_setup(
        seed, n_users=100, n_items=60, dim=64
    )
    config = dataclasses.replace(config, ldp_scale=ldp_scale)
    clients[1].warm_positives = np.zeros(0, np.int64)  # a client with no examples
    # spread the scores over (0, 1): near ln 2 the vector log and dot product
    # rarely differ from the scalar ones in the last bit
    server.table.embeddings *= 30.0
    for c in clients:
        c.user_embedding *= 30.0
    twins = copy.deepcopy(clients)
    table = server.table.embeddings
    before = table.copy()
    rngs = [stream_rng(seed, "client", 1, c.user_id) for c in clients]
    rows, losses = train_clients_lockstep(clients, table, rngs, config)
    rows = [apply_ldp(r, ldp_scale, rng) for r, rng in zip(rows, rngs)]
    want_rows, want_losses = oracle_uploads(twins, table, config, seed, 1)
    assert np.array_equal(table, before)
    assert losses == want_losses
    assert losses[1] == 0.0 and len(rows[1]) == 0
    for c, twin, got, want in zip(clients, twins, rows, want_rows):
        assert np.array_equal(c.user_embedding, twin.user_embedding)
        assert_rows_equal(got, want)


def test_run_round_sampled_clients_match_scalar_oracle_bitwise():
    split, config, server, clients, _ = small_setup(seed=9, n_users=40, dim=64)
    config = dataclasses.replace(config, client_sample_ratio=0.4, ldp_scale=0.5)
    twins = copy.deepcopy(clients)
    table = server.table.embeddings.copy()
    report = run_round(server, clients, None, None, split, config, seed=9)
    sampled = [twins[up.user_id] for up in server.pending]
    assert 0 < len(sampled) < len(clients)
    want_rows, want_losses = oracle_uploads(sampled, table, config, 9, 1)
    for up, want in zip(server.pending, want_rows):
        assert_rows_equal(up.rows, want)
    kept = [loss for c, loss in zip(sampled, want_losses) if c.warm_positives.size]
    assert report.mean_client_loss == float(np.mean(kept))
    for c, twin in zip(clients, twins):
        assert np.array_equal(c.user_embedding, twin.user_embedding)


def test_lockstep_small_negative_pool_names_the_user():
    split, config, server, clients, _ = small_setup(seed=1)
    client = next(c for c in clients if c.warm_positives.size > 0)
    client.negative_pool = client.negative_pool[:1]
    rngs = [stream_rng(1, "client", 1, c.user_id) for c in clients]
    with pytest.raises(ConfigError, match=f"user {client.user_id}:"):
        train_clients_lockstep(clients, server.table.embeddings, rngs, config)


def test_negative_pools_keep_warm_order():
    split, config, server, clients, _ = small_setup(seed=2)
    split.warm_items.reverse()
    _, clients = init_simulation(split, config, 2)
    by_user = split.dataset.by_user()
    for c in clients:
        want = [i for i in split.warm_items if i not in by_user[c.user_id]]
        assert c.negative_pool.tolist() == want
        assert c.negative_pool.dtype == np.int64


def test_light_mode_cadence():
    assert [diffusion_trains_this_round(r, True) for r in range(1, 11)] == [
        True,
        False,
    ] * 5
    assert all(diffusion_trains_this_round(r, False) for r in range(1, 11))


def test_run_round_light_mode_counts():
    split, config, server, clients, feats = small_setup()
    config = dataclasses.replace(config, light_mode=True, rounds=10)
    gen = make_generator(config.dim, feats.dim)
    events = 0
    for _ in range(10):
        report = run_round(server, clients, gen, feats, split, config, seed=0)
        if report.diffusion_loss is not None:
            events += 1
    assert events == 5


def test_run_round_two_rounds_one_diffusion_event_in_light_mode():
    split, config, server, clients, feats = small_setup()
    config = dataclasses.replace(config, light_mode=True)
    gen = make_generator(config.dim, feats.dim)
    r1 = run_round(server, clients, gen, feats, split, config, seed=0)
    r2 = run_round(server, clients, gen, feats, split, config, seed=0)
    assert r1.diffusion_loss is not None
    assert r2.diffusion_loss is None


def test_run_round_deterministic_simulation():
    tables = []
    for _ in range(2):
        split, config, server, clients, feats = small_setup(seed=5)
        gen = make_generator(config.dim, feats.dim, seed=5)
        for _ in range(3):
            run_round(server, clients, gen, feats, split, config, seed=11)
        finalize_table(server)
        tables.append(server.table.embeddings.copy())
    assert np.array_equal(tables[0], tables[1])


def test_run_round_cold_rows_never_touched():
    split, config, server, clients, feats = small_setup(seed=2)
    cold = np.array(split.cold_items)
    initial_cold = server.table.embeddings[cold].copy()
    gen = make_generator(config.dim, feats.dim)
    for _ in range(3):
        run_round(server, clients, gen, feats, split, config, seed=3)
        for up in server.pending:
            assert not set(up.rows) & set(split.cold_items)
    finalize_table(server)
    assert np.array_equal(server.table.embeddings[cold], initial_cold)


def test_run_round_full_participation_uploads():
    split, config, server, clients, feats = small_setup(seed=4)
    run_round(server, clients, None, feats, split, config, seed=4)
    assert len(server.pending) == len(clients)
    uploaded_users = [u.user_id for u in server.pending]
    assert uploaded_users == sorted(uploaded_users)


def test_run_round_client_sampling_ratio():
    split, config, server, clients, feats = small_setup(seed=6)
    config = dataclasses.replace(config, client_sample_ratio=0.5)
    run_round(server, clients, None, feats, split, config, seed=6)
    assert len(server.pending) == math.ceil(0.5 * len(clients))


def test_mean_client_loss_positive():
    split, config, server, clients, feats = small_setup(seed=8)
    report = run_round(server, clients, None, feats, split, config, seed=8)
    assert report.mean_client_loss > 0
    assert report.round == 1
    assert report.seconds >= 0


def test_fed_config_validation():
    FedConfig().validate()
    with pytest.raises(ConfigError):
        FedConfig(rounds=0).validate()
    with pytest.raises(ConfigError):
        FedConfig(client_sample_ratio=0.0).validate()
    with pytest.raises(ConfigError):
        FedConfig(ldp_scale=-1.0).validate()


def test_mapper_learns_identity_task():
    rng = stream_rng(9, "mapper")
    x = 0.5 * rng.standard_normal((40, 6))
    mapper = train_baseline_mapper(x, x, epochs=2000, lr=0.05, rng=rng)
    pred = mapper.predict(x)
    assert float(np.mean((pred - x) ** 2)) < 1e-3


def test_mapper_zero_rows_rejected():
    rng = stream_rng(10, "mapper-zero")
    with pytest.raises(ConfigError):
        train_baseline_mapper(np.zeros((0, 4)), np.zeros((0, 8)), 10, 0.1, rng)


def test_mlp_gradient_check():
    rng = stream_rng(11, "mlp-grad")
    mlp = TwoLayerMLP.init(5, 7, 3, rng)
    x = rng.standard_normal((4, 5))
    y = rng.standard_normal((4, 3))

    def loss_fn(tensors):
        model = TwoLayerMLP.from_tensors(tensors)
        return model.loss_and_grads(x, y)

    report = finite_diff_grad_check(loss_fn, mlp.tensors(), h=1e-5, tolerance=1e-4)
    assert report.passed, report.max_rel_error


def test_mlp_zero_epochs_returns_init():
    rng = stream_rng(12, "mlp-zero")
    mlp = TwoLayerMLP.init(3, 4, 2, rng)
    before = {k: v.copy() for k, v in mlp.tensors().items()}
    losses = mlp.sgd_train(np.zeros((2, 3)), np.zeros((2, 2)), epochs=0, lr=0.1)
    assert losses == []
    for k, v in mlp.tensors().items():
        assert np.array_equal(v, before[k])
