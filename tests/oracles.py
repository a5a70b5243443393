"""Reference oracles that only the tests call.

Each one restates a piece of the program in its plainest scalar form, or
checks it from outside: central-difference gradients, the exact reverse-step
posterior and the model's posterior mean, the Gaussian entropy floor, the
logistic with one branch per sign, the clamped BCE loss, Floyd's sampling of
k distinct items, the simulation's set-up one user at a time, the item split
and per-user item sets over lists of pairs, the round buffer's index one
client at a time, Laplace upload noise by numpy's two branches, mean
aggregation whose first upload assigns, the cold ranking with its per-cutoff
recall, precision and NDCG, and the denoiser's training as first written:
Adam over a dict of tensors, and a loss that projects each row's time key
and attends by einsum and a row softmax. Two helpers give a single pass its
own arrays: a fresh denoiser workspace, and the MLP's loss and gradients
for a gradient check, and ``affine`` writes the dense layer ``x @ w + b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fedcold.diffusion import (
    DenoiserParams,
    NoiseSchedule,
    _posterior_coeffs,
    _workspace,
    sinusoidal_encoding,
)
from fedcold.errors import ConfigError, NumericsError
from fedcold.federation import (
    INIT_STD,
    PROB_CLAMP,
    ClientState,
    score_items,
)
from fedcold.numerics import stream_rng

GRAD_CHECK_H_MIN = 1e-6
GRAD_CHECK_H_MAX = 1e-4


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dense layer ``x @ w + b``."""
    return x @ w + b


@dataclass
class GradCheckReport:
    """Result of comparing analytic gradients against central differences."""

    max_rel_error: float
    n_checked: int
    tolerance: float
    passed: bool
    worst_param: str = ""
    worst_index: int = -1
    per_param: dict[str, float] = field(default_factory=dict)


def finite_diff_grad_check(
    loss_fn,
    params: dict[str, np.ndarray],
    h: float = 1e-5,
    tolerance: float = 1e-4,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Validate analytic gradients with central finite differences.

    ``loss_fn`` maps a parameter dict to ``(loss, grads)`` where ``grads``
    mirrors the dict structure. For a subsample of coordinates (all of them
    when ``max_coords_per_param`` is None) the analytic entry is compared to
    ``(f(p + h e_i) - f(p - h e_i)) / (2h)``. Relative error uses
    ``|a - n| / max(|a|, |n|, 1e-6)``.
    """
    if not (GRAD_CHECK_H_MIN <= h <= GRAD_CHECK_H_MAX):
        raise ConfigError(
            f"grad check step h={h} outside [{GRAD_CHECK_H_MIN}, {GRAD_CHECK_H_MAX}]"
        )
    if rng is None:
        rng = stream_rng(0, "gradcheck")
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    loss, grads = loss_fn(work)
    if not np.isfinite(loss):
        raise NumericsError(f"loss is not finite: {loss}")

    report = GradCheckReport(
        max_rel_error=0.0, n_checked=0, tolerance=tolerance, passed=True
    )
    for name in sorted(work):
        analytic = np.asarray(grads[name], dtype=np.float64).ravel()
        flat = work[name].ravel()
        n_coords = flat.size
        if max_coords_per_param is not None and n_coords > max_coords_per_param:
            idx = rng.choice(n_coords, size=max_coords_per_param, replace=False)
            idx = np.sort(idx)
        else:
            idx = np.arange(n_coords)
        worst_here = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_fn(work)
            flat[i] = orig - h
            down, _ = loss_fn(work)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            report.n_checked += 1
            if rel > worst_here:
                worst_here = rel
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = name
                report.worst_index = int(i)
        report.per_param[name] = worst_here
    report.passed = report.max_rel_error < tolerance
    return report


def _broadcast_coeff(c: np.ndarray, like: np.ndarray):
    if like.ndim == 2 and c.size == like.shape[0]:
        return c[:, None]
    if c.size == 1:
        return c[0]
    return c


def posterior_mean_from_prediction(
    e_t: np.ndarray, t, e0_hat: np.ndarray, schedule: NoiseSchedule
) -> np.ndarray:
    """Model-side posterior mean: the exact mean with e0 replaced by ê0.

    The reverse chain forms the same sum in place, from the same
    ``_posterior_coeffs``."""
    e_t = np.asarray(e_t, dtype=np.float64)
    e0_hat = np.asarray(e0_hat, dtype=np.float64)
    if e_t.shape != e0_hat.shape:
        raise ConfigError(f"e_t shape {e_t.shape} != e0_hat shape {e0_hat.shape}")
    c_noisy, c_clean = _posterior_coeffs(t, schedule)
    return _broadcast_coeff(c_noisy, e_t) * e_t + _broadcast_coeff(c_clean, e0_hat) * e0_hat


def posterior_stats(
    e0: np.ndarray, e_t: np.ndarray, t, schedule: NoiseSchedule
) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and variance of the reverse-step posterior given e0."""
    e0 = np.asarray(e0, dtype=np.float64)
    e_t = np.asarray(e_t, dtype=np.float64)
    if e0.shape != e_t.shape:
        raise ConfigError(f"e0 shape {e0.shape} != e_t shape {e_t.shape}")
    c_noisy, c_clean = _posterior_coeffs(t, schedule)
    var = schedule.sigma2[np.atleast_1d(np.asarray(t))]
    mean = _broadcast_coeff(c_noisy, e_t) * e_t + _broadcast_coeff(c_clean, e0) * e0
    return mean, var if var.size > 1 else var[0]


def gaussian_noise_floor(dim: int, sigma_min: float) -> float:
    """Entropy floor (nats) of a dim-dimensional Gaussian with per-axis scale sigma_min."""
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")
    if sigma_min <= 0:
        raise ConfigError(f"sigma_min must be positive, got {sigma_min}")
    return 0.5 * dim * math.log(2.0 * math.pi * math.e * sigma_min * sigma_min)


def sigmoid_two_branch(x: np.ndarray) -> np.ndarray:
    """The stable logistic, each sign on its own: ``1 / (1 + exp(-x))`` for
    ``x >= 0`` and ``exp(x) / (1 + exp(x))`` below."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_loss(y: float, y_hat: float) -> float:
    """Binary cross-entropy with the prediction clamped as the client kernel does."""
    p = min(max(y_hat, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))


def floyd_sample(pool: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``len(u)`` distinct items of ``pool`` by Floyd's algorithm, one at a time.

    Step ``c`` picks ``t = floor(u[c] * (j + 1))`` with ``j = |pool| - k + c``
    and takes ``j`` instead when ``t`` was already picked.
    """
    k = len(u)
    picked: list[int] = []
    for c in range(k):
        j = pool.size - k + c
        t = math.floor(u[c] * (j + 1))
        picked.append(j if t in picked else t)
    return pool[picked]


def laplace_row(rng, scale, size):
    """``size`` entries of Laplace(0, ``scale``) noise, by numpy's two branches.

    Each entry takes the stream's next double that is not exactly ``0.0``,
    one at a time, as ``Generator.laplace`` does, and maps it to
    ``0.0 - scale * log(2.0 - U - U)`` for ``U >= 0.5`` and to
    ``0.0 + scale * log(U + U)`` below; the logs are one ``np.log`` over the
    row.
    """
    u = np.empty(size)
    for i in range(size):
        u[i] = rng.random()
        while u[i] == 0.0:
            u[i] = rng.random()
    upper = u >= 0.5
    v = scale * np.log(np.where(upper, 2.0 - u - u, u + u))
    return np.where(upper, 0.0 - v, 0.0 + v)


def items_by_user_pairs(interactions):
    """Item set per user from a list of ``(user, item)`` pairs, one pair at a
    time, for the users that appear."""
    index = {}
    for u, i in interactions:
        index.setdefault(u, set()).add(i)
    return index


def synthetic_per_user(cfg):
    """``generate_synthetic``'s interactions and features with its redraw
    loop as first written: every user in turn, its row tested before and
    after each redraw. Also returns how many rows started empty and how many
    of them were forced."""
    n_users, n_items = cfg.synthetic_users, cfg.synthetic_items
    n_clusters, feature_dim = cfg.synthetic_clusters, cfg.synthetic_feature_dim
    rng = stream_rng(cfg.seed, "synthetic")
    u_cluster = np.arange(n_users) % n_clusters
    i_cluster = np.arange(n_items) % n_clusters
    same = (u_cluster[:, None] == i_cluster[None, :]).astype(np.float64)
    probs = cfg.synthetic_p_out + (cfg.synthetic_p_in - cfg.synthetic_p_out) * same
    hits = rng.random((n_users, n_items)) < probs
    empty = forced = 0
    for u in range(n_users):
        empty += not hits[u].any()
        tries = 0
        while not hits[u].any() and tries < 10:
            hits[u] = rng.random(n_items) < probs[u]
            tries += 1
        if not hits[u].any():
            in_cluster = np.flatnonzero(i_cluster == u_cluster[u])
            hits[u, int(rng.choice(in_cluster))] = True
            forced += 1
    centroids = np.eye(feature_dim)[:, :n_clusters].T
    noise = rng.standard_normal((n_items, feature_dim))
    features = centroids[i_cluster] + cfg.synthetic_feature_noise * noise
    return np.argwhere(hits), features, empty, forced


def split_items_pairs(interactions, n_items, ratios, seed):
    """The item split over a list of ``(user, item)`` pairs, one pair at a
    time: sorted warm, validation and cold items and the pairs of each kind,
    as new tuples in list order."""
    n_val = int(ratios[1] * n_items)
    n_cold = int(ratios[2] * n_items)
    n_warm = n_items - n_val - n_cold
    perm = stream_rng(seed, "split").permutation(n_items)
    warm = sorted(int(i) for i in perm[:n_warm])
    val = sorted(int(i) for i in perm[n_warm : n_warm + n_val])
    cold = sorted(int(i) for i in perm[n_warm + n_val :])
    warm_set, val_set = set(warm), set(val)
    train, val_rows, test = [], [], []
    for u, i in interactions:
        if i in warm_set:
            train.append((u, i))
        elif i in val_set:
            val_rows.append((u, i))
        else:
            test.append((u, i))
    return warm, val, cold, train, val_rows, test


def init_simulation_per_user(split, config):
    """The item table, user matrix and clients set up one user at a time.

    After the item table, the ``init`` stream draws each user's embedding in
    user order, and the user matrix stacks them; a user's negative pool is
    the warm items, in warm order, that ``np.isin`` does not find among its
    interactions.
    """
    ds = split.dataset
    rng = stream_rng(config.seed, "init")
    table = INIT_STD * rng.standard_normal((ds.n_items, config.dim))
    train_by_user = items_by_user_pairs(split.train_interactions.tolist())
    by_user = {u: set() for u in range(ds.n_users)}
    for u, i in ds.interactions.tolist():
        by_user[u].add(i)
    warm = np.array(split.warm_items, dtype=np.int64)
    clients, users = [], []
    for u in range(ds.n_users):
        positives = np.array(sorted(train_by_user.get(u, ())), dtype=np.int64)
        interacted = np.fromiter(by_user[u], dtype=np.int64)
        users.append(INIT_STD * rng.standard_normal(config.dim))
        clients.append(
            ClientState(
                user_id=u,
                warm_positives=positives,
                negative_pool=warm[~np.isin(warm, interacted)],
            )
        )
    return table, np.stack(users), clients


def buffer_index_per_client(sequences):
    """The round buffer's index from one ``np.unique`` per client.

    Each client's sorted unique items follow in client order; an example's
    buffer row is its client's offset plus its inverse index. Returns the
    buffer rows' items, the block bounds and every example's row.
    """
    items_of, rows_of = [], []
    offset = 0
    for sequence in sequences:
        items, slot = np.unique(sequence, return_inverse=True)
        items_of.append(items)
        rows_of.append(offset + slot)
        offset += items.size
    bounds = np.cumsum([0, *(items.size for items in items_of)])
    empty = np.zeros(0, dtype=np.int64)
    return np.concatenate([empty, *items_of]), bounds, np.concatenate([empty, *rows_of])


def aggregate_first_assigns(embeddings, uploads):
    """Mean aggregation where an item's first upload assigns and later ones add.

    Uploads are taken in ascending client order; rows nobody uploaded carry
    over.
    """
    new = embeddings.copy()
    total = np.empty_like(new)
    count = np.zeros(new.shape[0], dtype=np.int64)
    for up in sorted(uploads, key=lambda u: u.user_id):
        ids, block = up.rows.ids, up.rows.block
        first = count[ids] == 0
        total[ids[first]] = block[first]
        total[ids[~first]] += block[~first]
        count[ids] += 1
    touched = count > 0
    new[touched] = total[touched] / count[touched, None]
    return new


def rank_cold(
    user_embedding: np.ndarray, cold_ids: list[int], cold_embeddings: np.ndarray
) -> list[int]:
    """Cold items sorted by predicted score, ties broken by ascending id."""
    if len(cold_ids) != cold_embeddings.shape[0]:
        raise ConfigError(
            f"{len(cold_ids)} ids but {cold_embeddings.shape[0]} embedding rows"
        )
    scores = score_items(user_embedding, cold_embeddings)
    ids = np.asarray(cold_ids)
    order = np.lexsort((ids, -scores))
    return [int(ids[i]) for i in order]


def recall_precision_at_k(
    ranking: list[int], relevant: set[int], k: int
) -> tuple[float, float]:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ConfigError("relevant set must be non-empty")
    hits = sum(1 for item in ranking[:k] if item in relevant)
    return hits / len(relevant), hits / k


def ndcg_at_k(ranking: list[int], relevant: set[int], k: int) -> float:
    """Binary-relevance NDCG with 1/log2(rank+1) discounts."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ConfigError("relevant set must be non-empty")
    dcg = 0.0
    for rank, item in enumerate(ranking[:k], start=1):
        if item in relevant:
            dcg += 1.0 / math.log2(rank + 1)
    ideal_hits = min(len(relevant), k)
    idcg = sum(1.0 / math.log2(rank + 1) for rank in range(1, ideal_hits + 1))
    return dcg / idcg


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction, total on all finite inputs."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - np.max(m, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


class DictAdam:
    """Adam over a named parameter dict, one tensor at a time, in place."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name in sorted(params):
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(params[name]))
            v = self._v.setdefault(name, np.zeros_like(params[name]))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            params[name] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def attention_einsum(q, keys, scale):
    """Softmax attention of per-head queries ``q`` (n, heads, head width) over
    the key/value stack ``keys`` (n, key rows, heads, head width): the
    weights (n, heads, key rows) and the heads' outputs."""
    attn = softmax_rows(np.einsum("nhd,nrhd->nhr", q, keys) * scale)
    return attn, np.einsum("nhr,nrhd->nhd", attn, keys)


def attention_einsum_backward(d_heads, q, keys, attn, scale):
    """Gradients of ``attention_einsum`` for the heads' gradient ``d_heads``:
    the queries' and the keys' (keys are the values too)."""
    d_attn = np.einsum("nhd,nrhd->nhr", d_heads, keys)
    d_keys = np.einsum("nhr,nhd->nrhd", attn, d_heads)
    d_scores = attn * (d_attn - np.sum(d_attn * attn, axis=-1, keepdims=True))
    d_q = np.einsum("nhr,nrhd->nhd", d_scores, keys) * scale
    d_keys += np.einsum("nhr,nhd->nrhd", d_scores, q) * scale
    return d_q, d_keys


def reference_denoiser_loss(e0, m, t, eps, p, schedule):
    """The denoiser's reconstruction loss and gradients with fresh arrays
    throughout: each row's time key projected from its own encoding, the
    time and condition keys stacked and attended by ``attention_einsum``."""
    n, d = e0.shape
    h, dh = p.heads, p.width // p.heads
    ab = schedule.alpha_bar[t][:, None]
    e_t = np.sqrt(ab) * e0 + np.sqrt(1.0 - ab) * eps
    tenc = sinusoidal_encoding(t, d)
    keys = [affine(tenc, p.time_w, p.time_b)]
    if m is not None:
        keys.append(affine(m, p.cond_w, p.cond_b))
    kvh = np.stack(keys, axis=1).reshape(n, len(keys), h, dh)
    qh = (e_t @ p.query_w).reshape(n, h, dh)
    scale = 1.0 / math.sqrt(dh)
    attn, heads = attention_einsum(qh, kvh, scale)
    concat = heads.reshape(n, d)
    x = np.concatenate([e_t, concat @ p.out_w], axis=1)
    a1 = np.tanh(x @ p.trunk1_w + p.trunk1_b)
    a2 = np.tanh(a1 @ p.trunk2_w + p.trunk2_b)
    diff = a2 @ p.trunk3_w + p.trunk3_b - e0
    loss = float(np.mean(diff * diff))
    d_out = 2.0 * diff / diff.size
    grads = {"trunk3_w": a2.T @ d_out, "trunk3_b": d_out.sum(axis=0)}
    d_z2 = d_out @ p.trunk3_w.T * (1.0 - a2 * a2)
    grads["trunk2_w"] = a1.T @ d_z2
    grads["trunk2_b"] = d_z2.sum(axis=0)
    d_z1 = d_z2 @ p.trunk2_w.T * (1.0 - a1 * a1)
    grads["trunk1_w"] = x.T @ d_z1
    grads["trunk1_b"] = d_z1.sum(axis=0)
    d_fused = (d_z1 @ p.trunk1_w.T)[:, d:]
    grads["out_w"] = concat.T @ d_fused
    d_heads = (d_fused @ p.out_w.T).reshape(n, h, dh)
    d_qh, d_kvh = attention_einsum_backward(d_heads, qh, kvh, attn, scale)
    grads["query_w"] = e_t.T @ d_qh.reshape(n, d)
    d_kv = d_kvh.reshape(n, len(keys), d)
    grads["time_w"] = tenc.T @ d_kv[:, 0]
    grads["time_b"] = d_kv[:, 0].sum(axis=0)
    if m is None:
        grads["cond_w"] = np.zeros_like(p.cond_w)
        grads["cond_b"] = np.zeros_like(p.cond_b)
    else:
        grads["cond_w"] = m.T @ d_kv[:, 1]
        grads["cond_b"] = d_kv[:, 1].sum(axis=0)
    return loss, grads


def fresh_workspace(
    p: DenoiserParams, n: int, m: np.ndarray | None = None, steps: int = 1
):
    """A training workspace of its own for one denoiser pass over ``n`` rows,
    holding the condition key of ``m`` (None: no condition), for a schedule
    of ``steps`` steps: what ``_forward``, ``_backward`` and
    ``elbo_loss_fixed`` write into."""
    cond_key = None if m is None else affine(m, p.cond_w, p.cond_b)
    return _workspace(n, p, cond_key, steps, train=True)


def mlp_loss_and_grads(model, x, y):
    """The MLP's mean squared error and its gradients for a batch, in a
    fresh workspace: the gradients first, then the loss from the residual
    that ``_gradients`` keeps."""
    work = model._workspace(x.shape[0])
    model._gradients(x, y, work)
    diff = work["diff"]
    return float(np.mean(diff * diff)), work["grads"]


def reference_train_epochs(p, schedule, opt, e0_rows, conditions, rng, epochs, batch_size):
    """The denoiser's training epochs with a fresh loss and ``DictAdam`` step
    per batch, drawing from ``rng`` as the program does."""
    n = e0_rows.shape[0]
    tensors = p.tensors()
    losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            t = rng.integers(1, schedule.steps + 1, size=batch.size)
            eps = rng.standard_normal((batch.size, p.width))
            loss, grads = reference_denoiser_loss(
                e0_rows[batch], conditions[batch], t, eps, p, schedule
            )
            losses.append(loss)
            opt.step(tensors, grads)
    return float(np.mean(losses))
