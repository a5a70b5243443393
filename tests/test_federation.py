import copy
import dataclasses
import math

import numpy as np
import pytest

from fedcold import federation
from fedcold.config import RunConfig
from fedcold.data import (
    Dataset,
    SplitDataset,
    generate_synthetic,
    split_items,
)
from fedcold.errors import ConfigError
from fedcold.federation import (
    ClientUpload,
    UploadRows,
    aggregate,
    apply_ldp,
    buffer_index,
    init_simulation,
    mean_table,
    run_round,
    sample_negatives,
    score_items,
    train_clients_lockstep,
)
from fedcold.mlp import HIDDEN, TwoLayerMLP
from fedcold.numerics import sigmoid, stream_rng
from oracles import (
    aggregate_first_assigns,
    bce_loss,
    buffer_index_per_client,
    finite_diff_grad_check,
    floyd_sample,
    init_simulation_per_user,
    laplace_row,
    mlp_loss_and_grads,
)


def client_local_train(state, e_u, table, rng, config):
    """Scalar oracle for one client's local pass, which the kernel must match.

    Per positive, one BCE-SGD step for it and each negative; the user's row
    ``e_u`` is updated in place, item rows are copied on first touch so
    ``table`` is never written, and the returned dict holds the client's
    updated rows.
    """
    local = {}
    lr = config.local_lr
    loss_sum = 0.0
    n_examples = 0
    k = config.negatives_per_positive
    for pos in state.warm_positives:
        if k > state.negative_pool.size:
            raise ConfigError(
                f"user {state.user_id}: negative pool too small for {k} draws"
            )
        negatives = floyd_sample(state.negative_pool, rng.random(k))
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


def with_streams(clients, seed, round_index=1):
    """``clients``, each given its ``client`` stream of round ``round_index``."""
    for c in clients:
        c.rng = stream_rng(seed, "client", round_index, c.user_id)
    return clients


def lockstep(clients, table, users, config):
    """``train_clients_lockstep`` on a round buffer and phase timings of its own."""
    seconds = dict.fromkeys(("draw", "kernel"), 0.0)
    return train_clients_lockstep(
        clients, table, users, config, seconds, federation._RoundBuffer()
    )


def small_setup(seed=0, n_users=12, n_items=15, dim=8):
    config = RunConfig(
        synthetic=True,
        synthetic_users=n_users,
        synthetic_items=n_items,
        synthetic_clusters=3,
        synthetic_p_in=0.6,
        synthetic_p_out=0.05,
        synthetic_feature_dim=6,
        rounds=3,
        negatives_per_positive=2,
        dim=dim,
        seed=seed,
    )
    dataset, _ = generate_synthetic(config)
    split = split_items(dataset, (0.6, 0.1, 0.3), seed)
    item_table, users, clients = init_simulation(split, config)
    return split, config, item_table, users, clients


def test_predict_score_values():
    zero = np.zeros(4)
    assert score_items(zero, np.ones((1, 4)))[0] == 0.5
    big = np.full(4, 10.0)
    high, low = score_items(big, np.stack([big, -big]))
    assert high > 0.999999
    assert low < 1e-6


def test_score_items_matches_scalar():
    rng = stream_rng(1, "score")
    e_u = rng.standard_normal(6)
    rows = rng.standard_normal((5, 6))
    vec = score_items(e_u, rows)
    for i in range(5):
        assert abs(vec[i] - sigmoid(float(np.dot(e_u, rows[i])))) < 1e-12


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
    none = np.empty((0, 2), dtype=np.int64)
    ds = Dataset(n_users=1, n_items=2, interactions=np.array([[0, 0]]))
    split = SplitDataset(
        dataset=ds,
        warm_items=[0, 1],
        val_items=[],
        cold_items=[],
        train_interactions=ds.interactions,
        val_interactions=none,
        test_interactions=none,
    )
    config = RunConfig(rounds=1, negatives_per_positive=1, dim=4, seed=7)
    item_table, users, clients = init_simulation(split, config)
    return split, config, item_table, users, clients


def test_one_epoch_decreases_training_loss():
    _, config, table, users, clients = one_user_toy()
    client = clients[0]
    assert list(client.warm_positives) == [0]
    assert list(client.negative_pool) == [1]  # only possible negative

    def current_loss():
        pos, neg = score_items(users[0], table[:2])
        return (bce_loss(1.0, pos) + bce_loss(0.0, neg)) / 2

    before = current_loss()
    [rows], [reported] = lockstep(with_streams(clients, 7), table, users, config)
    for item, row in rows.items():
        table[item] = row
    after = current_loss()
    assert after < before
    # running loss is logged per example pre-update; near ln 2 at tiny init
    assert abs(reported - math.log(2.0)) < 1e-3


def test_client_touches_only_positives_and_negatives():
    split, config, item_table, users, clients = small_setup()
    client = next(c for c in clients if c.warm_positives.size > 0)
    [rows], _ = lockstep(with_streams([client], 0), item_table, users, config)
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


# a million noised entries: the vector log's last-bit differences show by then
LDP_SHAPE = (1000, 1000)


def state_leaves(rng):
    """The leaves of ``rng``'s bit-generator state, in key order."""

    def leaves(state):
        if isinstance(state, dict):
            return [leaf for key in sorted(state) for leaf in leaves(state[key])]
        return [np.asarray(state).tolist()]

    return leaves(rng.bit_generator.state)


def test_apply_ldp_zero_is_identity():
    rng = stream_rng(0, "ldp")
    block = rng.standard_normal(LDP_SHAPE)
    block[::7, ::3] = -0.0
    before, state = block.copy(), state_leaves(rng)
    rows = UploadRows(np.arange(LDP_SHAPE[0]), block)
    out = apply_ldp(rows, 0.0, rng)
    assert out is rows
    assert out.block.tobytes() == before.tobytes()
    assert state_leaves(rng) == state


def assert_noise_is_laplace(noise, want, scale):
    """``noise`` is ``want`` up to the log's last bit, sign for sign."""
    assert np.max(np.abs(noise - want)) <= 1e-12 * scale
    assert np.array_equal(np.signbit(noise), np.signbit(want))


@pytest.mark.parametrize("scale", [0.5, 10.0])
def test_apply_ldp_equals_generator_laplace(scale):
    rng, twin = stream_rng(4, "ldp-laplace"), stream_rng(4, "ldp-laplace")
    rows = UploadRows(np.arange(LDP_SHAPE[0]), np.zeros(LDP_SHAPE))
    noise = apply_ldp(rows, scale, rng).block
    want = twin.laplace(0.0, scale, size=LDP_SHAPE)
    assert_noise_is_laplace(noise, want, scale)
    # only the last bit of a few logs differs
    assert np.count_nonzero(noise != want) < 0.01 * want.size
    assert state_leaves(rng) == state_leaves(twin)


@pytest.mark.parametrize("scale", [0.5, 10.0])
@pytest.mark.parametrize("shape, first_zero", [(LDP_SHAPE, 5), ((1, 2), 1)])
def test_apply_ldp_skips_exact_zeros_as_laplace_does(scale, shape, first_zero):
    # MT19937 tempers a zero key word to a zero output, and a double takes two
    # outputs: zeroing four key words makes doubles first_zero and
    # first_zero + 1 exactly 0.0. With shape (1, 2) the zero that the block's
    # draw skips is redrawn as a zero too.
    state = np.random.MT19937(5).state
    state["state"]["pos"] = 600
    zeros = 600 + 2 * first_zero
    state["state"]["key"][zeros : zeros + 4] = 0
    probe, rng, twin = (np.random.Generator(np.random.MT19937()) for _ in range(3))
    for generator in (probe, rng, twin):
        generator.bit_generator.state = state
    drawn = probe.random(first_zero + 3)
    assert np.flatnonzero(drawn == 0.0).tolist() == [first_zero, first_zero + 1]

    rows = UploadRows(np.arange(shape[0]), np.zeros(shape))
    noise = apply_ldp(rows, scale, rng).block
    want = twin.laplace(0.0, scale, size=shape)
    assert np.all(np.isfinite(noise))
    assert_noise_is_laplace(noise, want, scale)
    assert state_leaves(rng) == state_leaves(twin)


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


def aggregated(table, uploads):
    """The mean table of ``uploads`` folded by one ``aggregate`` call, written
    into a copy of ``table``."""
    total = np.full_like(table, -0.0)
    count = np.zeros(table.shape[0], dtype=np.int64)
    aggregate(total, count, uploads)
    out = table.copy()
    mean_table(out, total, count)
    return out


def test_aggregate_mean_and_carry_over():
    table = np.zeros((4, 3))
    table[3] = 9.0
    uploads = [
        ClientUpload(
            user_id=1, rows=upload_rows({0: np.full(3, 2.0), 1: np.full(3, 4.0)})
        ),
        ClientUpload(user_id=0, rows=upload_rows({0: np.full(3, 6.0)})),
    ]
    out = aggregated(table, uploads)
    assert np.allclose(out[0], 4.0)  # mean of 2 and 6
    assert np.allclose(out[1], 4.0)  # single uploader copied
    assert np.allclose(out[3], 9.0)  # untouched row carried over


def test_aggregate_permutation_invariant_exactly():
    rng = stream_rng(4, "agg-perm")
    table = rng.standard_normal((3, 5))
    ups = [
        ClientUpload(user_id=u, rows=upload_rows({1: rng.standard_normal(5)}))
        for u in range(7)
    ]
    out1 = aggregated(table, ups)
    out2 = aggregated(table, list(reversed(ups)))
    assert np.array_equal(out1, out2)


def test_aggregate_equals_mean_of_stack_bitwise():
    rng = stream_rng(5, "agg-mean")
    table = rng.standard_normal((6, 7))
    uploads = [
        ClientUpload(
            user_id=u,
            rows=upload_rows(
                {i: rng.standard_normal(7) for i in range(6) if (u + i) % 4 != 0}
            ),
        )
        for u in range(9)
    ]
    out = aggregated(table, uploads)
    for item in range(6):
        rows = [up.rows[item] for up in uploads if item in up.rows]
        assert len(rows) >= 3
        assert np.array_equal(out[item], np.mean(np.stack(rows), axis=0))


@pytest.mark.parametrize("seed", [6, 7])
def test_aggregate_equals_first_assigns_oracle_bitwise_on_signed_zeros(seed):
    rng = stream_rng(seed, "agg-zeros")
    table = rng.standard_normal((9, 5))
    uploads = []
    for u in rng.permutation(12).tolist():
        items = sorted(rng.choice(7, size=int(rng.integers(0, 5)), replace=False))
        # entries drawn from -0.0, +0.0 and normals, so sums and single
        # uploads both meet zeros of either sign
        block = rng.standard_normal((len(items), 5))
        zeros = rng.integers(0, 3, size=block.shape)
        block[zeros == 1] = -0.0
        block[zeros == 2] = 0.0
        rows = UploadRows(np.array(items, dtype=np.int64), block)
        uploads.append(ClientUpload(user_id=u, rows=rows))
    # item 7's one upload is all -0.0; nobody uploads item 8
    uploads.append(ClientUpload(12, UploadRows(np.array([7]), np.full((1, 5), -0.0))))
    out = aggregated(table, uploads)
    want = aggregate_first_assigns(table, uploads)
    assert np.array_equal(out, want)
    assert np.array_equal(np.signbit(out), np.signbit(want))
    assert np.all(np.signbit(out[7])) and np.array_equal(out[8], table[8])


def oracle_uploads(clients, users, table, config, seed, round_index):
    """Scalar-oracle rows and losses, with one noise draw per row by item;
    the clients' rows of ``users`` are updated in place."""
    rows, losses = [], []
    for c in clients:
        rng = stream_rng(seed, "client", round_index, c.user_id)
        local, loss = client_local_train(c, users[c.user_id], table, rng, config)
        if config.ldp_scale:
            for item in sorted(local):
                local[item] = local[item] + laplace_row(
                    rng, config.ldp_scale, local[item].size
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
    split, config, table, users, clients = small_setup(
        seed, n_users=100, n_items=60, dim=64
    )
    config = dataclasses.replace(config, ldp_scale=ldp_scale)
    clients[1].warm_positives = np.zeros(0, np.int64)  # a client with no examples
    # spread the scores over (0, 1): near ln 2 the vector log and dot product
    # rarely differ from the scalar ones in the last bit
    table *= 30.0
    users *= 30.0
    twins, twin_users = copy.deepcopy(clients), users.copy()
    before = table.copy()
    rows, losses = lockstep(with_streams(clients, seed), table, users, config)
    rows = [apply_ldp(r, ldp_scale, c.rng) for r, c in zip(rows, clients)]
    want_rows, want_losses = oracle_uploads(twins, twin_users, table, config, seed, 1)
    assert np.array_equal(table, before)
    assert losses == want_losses
    assert losses[1] == 0.0 and len(rows[1]) == 0
    assert np.array_equal(users, twin_users)
    for got, want in zip(rows, want_rows):
        assert_rows_equal(got, want)


def oracle_table(table, users, clients, config, round_index):
    """The aggregated table and the losses from the scalar oracle's uploads;
    the clients' rows of ``users`` are updated in place."""
    rows, losses = oracle_uploads(
        clients, users, table, config, config.seed, round_index
    )
    uploads = [
        ClientUpload(user_id=c.user_id, rows=upload_rows(r))
        for c, r in zip(clients, rows)
        if r
    ]
    return aggregated(table, uploads), losses


def recorded_uploads(monkeypatch):
    """The upload lists ``run_round`` hands to ``aggregate``, one per call."""
    calls = []

    def recording_aggregate(total, count, uploads):
        calls.append(uploads)
        aggregate(total, count, uploads)

    monkeypatch.setattr(federation, "aggregate", recording_aggregate)
    return calls


def test_run_round_sampled_clients_match_scalar_oracle_bitwise(monkeypatch):
    split, config, item_table, users, clients = small_setup(
        seed=9, n_users=40, dim=64
    )
    config = dataclasses.replace(config, client_sample_ratio=0.4, ldp_scale=0.5)
    twins, twin_users = copy.deepcopy(clients), users.copy()
    table = item_table.copy()
    calls = recorded_uploads(monkeypatch)
    report = run_round(item_table, users, clients, config, 1)
    [uploads] = calls
    sampled = [twins[up.user_id] for up in uploads]
    assert 0 < len(sampled) < len(clients)
    want_table, want_losses = oracle_table(table, twin_users, sampled, config, 1)
    assert np.array_equal(item_table, want_table)
    kept = [loss for c, loss in zip(sampled, want_losses) if c.warm_positives.size]
    assert report.mean_client_loss == float(np.mean(kept))
    assert np.array_equal(users, twin_users)


def chunk_setup():
    """Sampled, noised rounds over 40 users; user 12 (sampled in round 1) has
    no positives."""
    split, config, item_table, users, clients = small_setup(
        seed=9, n_users=40, dim=64
    )
    config = dataclasses.replace(config, client_sample_ratio=0.4, ldp_scale=0.5)
    clients[12].warm_positives = np.zeros(0, np.int64)
    return split, config, item_table, users, clients


def chunked_rounds(monkeypatch, budget):
    """Two rounds of ``chunk_setup`` at chunk budget ``budget``, recorded.

    Returns the item table, the user matrix, the round reports, each round's
    chunks as lists of user ids, and each round's buffer takes as (bytes of
    the rows, bytes of the mapping that holds them).
    """
    split, config, item_table, users, clients = chunk_setup()
    chunks, takes = [], []

    def recording_train(chunk, *args, **kwargs):
        chunks[-1].append([c.user_id for c in chunk])
        return train_clients_lockstep(chunk, *args, **kwargs)

    class RecordingBuffer(federation._RoundBuffer):
        def take(self, table, ids):
            out = super().take(table, ids)
            takes[-1].append((out.nbytes, len(self.mapping)))
            return out

    with monkeypatch.context() as patch:
        patch.setattr(federation, "ROUND_BUFFER_BYTES", budget)
        patch.setattr(federation, "train_clients_lockstep", recording_train)
        patch.setattr(federation, "_RoundBuffer", RecordingBuffer)
        reports = []
        for round_index in (1, 2):
            chunks.append([])
            takes.append([])
            reports.append(run_round(item_table, users, clients, config, round_index))
    return item_table, users, reports, chunks, takes


def test_run_round_in_chunks_equals_one_chunk_and_scalar_oracle_bitwise(
    monkeypatch,
):
    _, config, want, twin_users, twins = chunk_setup()
    example_bytes = (1 + config.negatives_per_positive) * config.dim * 8
    budget = 4 * example_bytes  # 5-positive clients exceed it
    one_table, one_users, one_reports, one_chunks, one_takes = chunked_rounds(
        monkeypatch, federation.ROUND_BUFFER_BYTES
    )
    table, users, reports, chunks, takes = chunked_rounds(monkeypatch, budget)

    for r, (report, one_report) in enumerate(zip(reports, one_reports)):
        [sampled_ids] = one_chunks[r]
        # a one-chunk round maps exactly its rows
        [(rows_bytes, mapped)] = one_takes[r]
        assert rows_bytes == mapped
        # consecutive chunks in user order; only a lone client exceeds the budget
        assert len(chunks[r]) >= 3
        assert [u for chunk in chunks[r] for u in chunk] == sampled_ids
        sizes = [
            sum(twins[u].warm_positives.size for u in chunk) * example_bytes
            for chunk in chunks[r]
        ]
        assert all(s <= budget or len(c) == 1 for s, c in zip(sizes, chunks[r]))
        assert any(s > budget for s in sizes)
        assert any(twins[u].warm_positives.size == 0 for u in sampled_ids)
        assert all(rows <= mapped for rows, mapped in takes[r])

        sampled = [twins[u] for u in sampled_ids]
        rows, losses = oracle_uploads(
            sampled, twin_users, want, config, config.seed, r + 1
        )
        want = aggregated(
            want,
            [
                ClientUpload(user_id=c.user_id, rows=upload_rows(rs))
                for c, rs in zip(sampled, rows)
                if rs
            ],
        )
        kept = [loss for c, loss in zip(sampled, losses) if c.warm_positives.size]
        assert report.mean_client_loss == one_report.mean_client_loss
        assert report.mean_client_loss == float(np.mean(kept))
        n_rows = sum(len(rs) for rs in rows)
        counters = (n_rows, len(set().union(*rows)), n_rows * config.dim * 8)
        assert counters == (
            report.upload_rows,
            report.distinct_items,
            report.payload_bytes,
        )
        assert counters == (
            one_report.upload_rows,
            one_report.distinct_items,
            one_report.payload_bytes,
        )
    assert np.array_equal(table, one_table)
    assert np.array_equal(table, want)
    assert np.array_equal(users, one_users)
    assert np.array_equal(users, twin_users)


def test_lockstep_small_negative_pool_names_the_user():
    split, config, item_table, users, clients = small_setup(seed=1)
    client = next(c for c in clients if c.warm_positives.size > 0)
    client.negative_pool = client.negative_pool[:1]
    with pytest.raises(ConfigError, match=f"user {client.user_id}:"):
        lockstep(with_streams(clients, 1), item_table, users, config)


def pool_clients(n_clients, positives, pool, pool_sizes=None):
    """Clients holding ``positives`` and a prefix of ``pool`` sized per client."""
    sizes = pool_sizes or [len(pool)] * n_clients
    return [
        federation.ClientState(
            user_id=u,
            warm_positives=np.array(positives, dtype=np.int64),
            negative_pool=np.array(pool[:size], dtype=np.int64),
        )
        for u, size in zip(range(n_clients), sizes)
    ]


@pytest.mark.parametrize("k", [1, 3, 5])
def test_sample_negatives_equals_scalar_floyd_oracle_bitwise(k):
    rng = stream_rng(20, "floyd-setup", k)
    sizes = [int(n) for n in rng.integers(k, 40, size=30)]
    clients = pool_clients(30, [], list(range(100, 140)), sizes)
    for c in clients:
        c.warm_positives = np.arange(int(rng.integers(0, 12)), dtype=np.int64)
    clients[4].warm_positives = np.zeros(0, np.int64)
    got = sample_negatives(with_streams(clients, 20), k)
    for c, negatives in zip(clients, got):
        u = stream_rng(20, "client", 1, c.user_id).random((c.warm_positives.size, k))
        want = [floyd_sample(c.negative_pool, row) for row in u]
        assert negatives.shape == (c.warm_positives.size, k)
        assert np.array_equal(negatives, np.reshape(want, (-1, k)))


def test_sample_negatives_uniform_over_k_subsets():
    pool = [3, 7, 8, 12, 14, 19]
    positives = [0, 1, 2, 4, 5, 6, 9, 10, 11, 13]
    clients = with_streams(pool_clients(3000, positives, pool), 21)
    draws = np.concatenate(sample_negatives(clients, 2))
    assert draws.shape == (30_000, 2)
    assert np.all(draws[:, 0] != draws[:, 1])
    assert np.all(np.isin(draws, pool))
    counts = {}
    for a, b in draws.tolist():
        key = (min(a, b), max(a, b))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15  # every 2-subset of the pool of 6
    expected = draws.shape[0] / 15
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    assert chi2 < 36.12  # the 0.999 quantile of chi-square with 14 dof


def test_sample_negatives_do_not_depend_on_other_clients():
    clients = pool_clients(5, [0, 1, 2], list(range(3, 20)))
    every = sample_negatives(with_streams(clients, 22), 4)
    [alone] = sample_negatives(with_streams([clients[3]], 22), 4)
    assert np.array_equal(alone, every[3])


class ConstantUniforms:
    """A stand-in stream whose every uniform is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None, out=None):
        if out is None:
            return np.full(size, self.value)
        out[...] = self.value
        return out


@pytest.mark.parametrize("pool_size", [3, 4, 5, 8, 17, 1024, 1025, 2**20 + 1])
def test_sample_negatives_largest_uniform_stays_in_range(pool_size):
    # floor(u * (j + 1)) never reaches j + 1, so every column takes t = j
    pool = np.arange(pool_size, dtype=np.int64) + 50
    clients = pool_clients(1, [0], pool)
    below_one = ConstantUniforms(np.nextafter(1.0, 0.0))
    clients[0].rng = below_one
    [negatives] = sample_negatives(clients, 3)
    assert negatives.tolist() == [pool[-3:].tolist()]
    assert floyd_sample(pool, below_one.random(3)).tolist() == pool[-3:].tolist()


def test_negative_pools_keep_warm_order():
    split, config, _, _, _ = small_setup(seed=2)
    split.warm_items.reverse()
    _, _, clients = init_simulation(split, config)
    interactions = set(map(tuple, split.dataset.interactions.tolist()))
    for c in clients:
        want = [i for i in split.warm_items if (c.user_id, i) not in interactions]
        assert c.negative_pool.tolist() == want
        assert c.negative_pool.dtype == np.int64


@pytest.mark.parametrize("seed", [2, 5])
def test_init_simulation_equals_per_user_oracle(seed):
    split, config, _, _, _ = small_setup(seed, n_users=40, n_items=30)
    # two users keep their interactions but lose every training positive
    dropped = {3, 17}
    split = dataclasses.replace(
        split,
        train_interactions=split.train_interactions[
            ~np.isin(split.train_interactions[:, 0], list(dropped))
        ],
    )
    table, users, clients = init_simulation(split, config)
    want_table, want_users, want_clients = init_simulation_per_user(split, config)
    assert np.array_equal(table, want_table)
    assert np.array_equal(users, want_users)
    assert [c.user_id for c in clients] == list(range(40))
    for c, want in zip(clients, want_clients):
        assert c.warm_positives.dtype == c.negative_pool.dtype == np.int64
        assert np.array_equal(c.warm_positives, want.warm_positives)
        assert np.array_equal(c.negative_pool, want.negative_pool)
    assert all(clients[u].warm_positives.size == 0 for u in dropped)
    assert all(clients[u].negative_pool.size > 0 for u in dropped)


def index_sequences(seed, n_clients, n_items, max_len=12):
    """Per-client example sequences with repeats; every third client has none."""
    rng = stream_rng(seed, "index-sequences")
    sequences = []
    for c in range(n_clients):
        length = 0 if c % 3 == 1 else int(rng.integers(1, max_len))
        # items from both ends of the range, so the largest keys are used
        low = rng.integers(0, 4, size=length)
        sequences.append(np.where(rng.random(length) < 0.5, low, n_items - 1 - low))
    return sequences


@pytest.mark.parametrize(
    "n_clients, n_items",
    [
        (1, 5),
        (7, 15),
        (40, 60),
        (1, 2**31 - 1),  # the largest key, 2**31 - 2, still fits int32
        (4, 2**30),  # keys up to 2**32 - 1: the int64 fallback
        (3, 2**40),
    ],
)
def test_buffer_index_equals_per_client_unique_oracle(n_clients, n_items):
    sequences = index_sequences(n_clients, n_clients, n_items)
    items, bounds, inverse = buffer_index(sequences, n_items)
    want_items, want_bounds, want_inverse = buffer_index_per_client(sequences)
    assert items.dtype == np.int64
    assert np.array_equal(items, want_items)
    assert np.array_equal(bounds, want_bounds)
    assert np.array_equal(inverse, want_inverse)
    assert np.array_equal(items[inverse], np.concatenate(sequences))


def test_buffer_index_of_clients_without_examples():
    items, bounds, inverse = buffer_index([np.zeros(0, np.int64)] * 3, 10)
    assert items.size == inverse.size == 0
    assert bounds.tolist() == [0, 0, 0, 0]


def test_run_round_rekeyed_client_streams_match_fresh_streams_over_rounds(
    monkeypatch,
):
    split, config, item_table, users, clients = small_setup(
        seed=13, n_users=30, dim=16
    )
    config = dataclasses.replace(config, client_sample_ratio=0.5, ldp_scale=0.3)
    twins, twin_users = copy.deepcopy(clients), users.copy()
    calls = recorded_uploads(monkeypatch)
    for round_index in range(1, 4):
        table = item_table.copy()
        run_round(item_table, users, clients, config, round_index)
        sampled = [twins[up.user_id] for up in calls[-1]]
        want_table, _ = oracle_table(table, twin_users, sampled, config, round_index)
        assert np.array_equal(item_table, want_table)
    assert np.array_equal(users, twin_users)
    # some clients were sampled again, so their generators were re-keyed
    assert {up.user_id for up in calls[0]} & {up.user_id for up in calls[1]}


def test_run_round_deterministic_simulation():
    tables = []
    for _ in range(2):
        split, config, item_table, users, clients = small_setup(seed=5)
        config = dataclasses.replace(config, seed=11)
        for round_index in (1, 2, 3):
            run_round(item_table, users, clients, config, round_index)
        tables.append(item_table.copy())
    assert np.array_equal(tables[0], tables[1])


def test_run_round_cold_rows_never_touched():
    split, config, item_table, users, clients = small_setup(seed=2)
    config = dataclasses.replace(config, seed=3)
    cold = np.array(split.cold_items)
    initial_cold = item_table[cold].copy()
    for round_index in (1, 2, 3):
        run_round(item_table, users, clients, config, round_index)
        assert np.array_equal(item_table[cold], initial_cold)


def test_run_round_writes_into_the_callers_table_and_users(monkeypatch):
    split, config, table, users, clients = small_setup(seed=10, n_users=30)
    config = dataclasses.replace(config, client_sample_ratio=0.5)
    table_before, users_before = table.copy(), users.copy()
    calls = recorded_uploads(monkeypatch)
    report = run_round(table, users, clients, config, 1)
    [uploads] = calls
    uploaded = np.unique(np.concatenate([up.rows.ids for up in uploads]))
    untouched = np.setdiff1d(np.arange(table.shape[0]), uploaded)
    trained = [up.user_id for up in uploads if clients[up.user_id].warm_positives.size]
    unsampled = np.setdiff1d(np.arange(len(clients)), [up.user_id for up in uploads])
    assert report.distinct_items == uploaded.size
    assert untouched.size and unsampled.size and trained
    # the mean lands in the arrays the caller holds ...
    assert np.array_equal(table[uploaded], aggregated(table_before, uploads)[uploaded])
    assert np.all(np.any(table[uploaded] != table_before[uploaded], axis=1))
    assert np.all(np.any(users[trained] != users_before[trained], axis=1))
    # ... and every other row keeps its bits
    assert table[untouched].tobytes() == table_before[untouched].tobytes()
    assert users[unsampled].tobytes() == users_before[unsampled].tobytes()


def test_run_round_full_participation_uploads():
    split, config, item_table, users, clients = small_setup(seed=4)
    twins, twin_users = copy.deepcopy(clients), users.copy()
    table = item_table.copy()
    run_round(item_table, users, clients, config, 1)
    want_table, _ = oracle_table(table, twin_users, twins, config, 1)
    assert np.array_equal(item_table, want_table)
    assert np.array_equal(users, twin_users)


def test_run_round_client_sampling_ratio(monkeypatch):
    split, config, item_table, users, clients = small_setup(seed=6)
    config = dataclasses.replace(config, client_sample_ratio=0.5)
    calls = recorded_uploads(monkeypatch)
    run_round(item_table, users, clients, config, 1)
    [uploads] = calls
    assert len(uploads) == math.ceil(0.5 * len(clients))
    uploaded_users = [u.user_id for u in uploads]
    assert uploaded_users == sorted(set(uploaded_users))


def test_mean_client_loss_positive():
    split, config, item_table, users, clients = small_setup(seed=8)
    report = run_round(item_table, users, clients, config, 1)
    assert report.mean_client_loss > 0
    assert report.round == 1
    assert report.seconds >= 0


def test_fed_config_validation():
    # validate is the one check of each key: the layers below take its
    # values unchecked
    base = RunConfig(synthetic=True)
    base.validate()
    bad = [
        ("rounds", 0, "rounds must be >= 1"),
        ("local_lr", 0.0, "local_lr must be positive"),
        ("negatives_per_positive", 0, "negatives_per_positive must be >= 1"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("client_sample_ratio", 0.0, r"client_sample_ratio=0.0 outside \(0, 1\]"),
        ("server_epochs", 0, "server_epochs must be >= 1"),
        ("ldp_scale", -1.0, "ldp_scale must be non-negative"),
        ("dim", 0, "dim must be positive"),
        ("heads", 3, "width 64 must be divisible by heads 3"),
        ("attack_epochs", -1, "attack_epochs and mapper_epochs must be non-negative"),
        ("mapper_epochs", -1, "attack_epochs and mapper_epochs must be non-negative"),
        ("attack_lr", 0.0, "attack_lr and mapper_lr must be positive"),
        ("mapper_lr", 0.0, "attack_lr and mapper_lr must be positive"),
        ("struct_sample_n", 1, "struct_sample_n must be >= 2, got 1"),
        ("leak_fraction", 0.0, r"leak_fraction must be in \(0, 1\), got 0.0"),
        ("k_list", (0,), r"k_list must be non-empty positive ints: \(0,\)"),
        ("k_list", (10, 10), r"k_list has duplicates: \(10, 10\)"),
        ("val_k", 0, "val_k must be >= 1, got 0"),
        ("condition", "half", "unknown condition mode 'half'"),
        ("inference_mode", "greedy", "unknown inference mode 'greedy'"),
        ("split_warm", 0.5, "split ratios must be positive and sum to 1"),
    ]
    for key, value, message in bad:
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(base, **{key: value}).validate()


def test_mapper_learns_identity_task():
    rng = stream_rng(9, "mapper")
    x = 0.5 * rng.standard_normal((40, 6))
    mapper = TwoLayerMLP.fit(x, x, epochs=2000, lr=0.05, rng=rng)
    assert float(np.mean((mapper.predict(x) - x) ** 2)) < 1e-3


def test_mapper_zero_rows_rejected():
    # the mapper fits on the warm rows: a split without warm items is refused
    # where it enters, and positive ratios leave at least one warm item
    with pytest.raises(ConfigError, match="split ratios must be positive and sum to 1"):
        RunConfig(
            synthetic=True, split_warm=0.0, split_val=0.1, split_cold=0.9
        ).validate()
    dataset = Dataset(n_users=1, n_items=10, interactions=np.array([[0, 0]]))
    assert len(split_items(dataset, (0.05, 0.05, 0.9), seed=0).warm_items) == 1


def test_mlp_gradient_check():
    rng = stream_rng(11, "mlp-grad")
    mlp = TwoLayerMLP.init(5, 7, 3, rng)
    x = rng.standard_normal((4, 5))
    y = rng.standard_normal((4, 3))

    def loss_fn(tensors):
        return mlp_loss_and_grads(TwoLayerMLP.from_tensors(tensors), x, y)

    report = finite_diff_grad_check(loss_fn, mlp.tensors(), h=1e-5, tolerance=1e-4)
    assert report.passed, report.max_rel_error


def test_mlp_zero_epochs_returns_init():
    rng = stream_rng(12, "mlp-zero")
    mlp = TwoLayerMLP.init(3, 4, 2, rng)
    before = {k: v.copy() for k, v in mlp.tensors().items()}
    mlp.sgd_train(np.zeros((2, 3)), np.zeros((2, 2)), epochs=0, lr=0.1)
    for k, v in mlp.tensors().items():
        assert np.array_equal(v, before[k])


def reference_sgd(mlp, x, y, epochs, lr):
    """Full-batch SGD with every array allocated afresh each epoch."""
    for _ in range(epochs):
        h = np.tanh(x @ mlp.hidden_w + mlp.hidden_b)
        diff = h @ mlp.out_w + mlp.out_b - y
        d_pred = 2.0 * diff / diff.size
        d_z = (d_pred @ mlp.out_w.T) * (1.0 - h * h)
        grads = {
            "hidden_w": x.T @ d_z,
            "hidden_b": np.sum(d_z, axis=0),
            "out_w": h.T @ d_pred,
            "out_b": np.sum(d_pred, axis=0),
        }
        mlp.hidden_w -= lr * grads["hidden_w"]
        mlp.hidden_b -= lr * grads["hidden_b"]
        mlp.out_w -= lr * grads["out_w"]
        mlp.out_b -= lr * grads["out_b"]


@pytest.mark.parametrize("rows, epochs", [(1, 40), (300, 40), (300, 0)])
def test_sgd_train_matches_reference_bitwise(rows, epochs):
    rng = stream_rng(13, "mlp-oracle", rows)
    x = rng.standard_normal((rows, 8))
    y = rng.standard_normal((rows, 64))
    fitted = TwoLayerMLP.init(8, 128, 64, stream_rng(14, "mlp-oracle-init"))
    expected = copy.deepcopy(fitted)
    fitted.sgd_train(x, y, epochs, 0.05)
    reference_sgd(expected, x, y, epochs, 0.05)
    for name, tensor in fitted.tensors().items():
        assert np.array_equal(tensor, expected.tensors()[name]), name


def test_fit_matches_reference_bitwise_at_mapper_shapes():
    # the baseline mapper's shapes: 313 warm rows of 8 features to width 64
    rng = stream_rng(15, "mlp-fit-oracle")
    x = rng.standard_normal((313, 8))
    y = rng.standard_normal((313, 64))
    fitted = TwoLayerMLP.fit(x, y, 300, 0.05, stream_rng(16, "mlp-fit-init"))
    expected = TwoLayerMLP.init(8, HIDDEN, 64, stream_rng(16, "mlp-fit-init"))
    reference_sgd(expected, x, y, 300, 0.05)
    for name, tensor in fitted.tensors().items():
        assert np.array_equal(tensor, expected.tensors()[name]), name


def test_sgd_train_resumes_where_it_stopped():
    rng = stream_rng(17, "mlp-resume")
    x = rng.standard_normal((20, 5))
    y = rng.standard_normal((20, 3))
    split = TwoLayerMLP.init(5, 16, 3, stream_rng(18, "mlp-resume-init"))
    whole = copy.deepcopy(split)
    split.sgd_train(x, y, 7, 0.05)
    split.sgd_train(x, y, 5, 0.05)
    whole.sgd_train(x, y, 12, 0.05)
    for name, tensor in split.tensors().items():
        assert np.array_equal(tensor, whole.tensors()[name]), name


def test_fitting_another_model_leaves_a_model_unchanged():
    rng = stream_rng(19, "mlp-independent")
    x = rng.standard_normal((30, 6))
    y = rng.standard_normal((30, 4))
    first = TwoLayerMLP.fit(x, y, 20, 0.05, stream_rng(20, "mlp-first"))
    kept = {name: tensor.copy() for name, tensor in first.tensors().items()}
    TwoLayerMLP.fit(x, y, 20, 0.05, stream_rng(21, "mlp-second"))
    TwoLayerMLP.fit(x[:10], y[:10], 20, 0.05, stream_rng(20, "mlp-first"))
    for name, tensor in first.tensors().items():
        assert np.array_equal(tensor, kept[name]), name
