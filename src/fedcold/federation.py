"""Federated matrix-factorization simulator.

Clients hold a private user embedding and train locally on a distributed copy
of the global item table; only touched item rows travel back to the server,
optionally with per-entry Laplace noise. The server averages uploads row-wise
and redistributes; training the diffusion generator on the warm rows, the
server's other job in a round, is the training loop's (``pipeline``).

Within a round every client reads the same table and draws from its own
per-(round, client) RNG stream: first the uniforms for its negatives, which one
Floyd step per column turns into k-subsets of its pool, then the uniforms of
its upload noise, which one branch-free inverse CDF turns into Laplace noise
(``Generator.laplace``'s, up to the last bit of the log). The sampled clients
train in consecutive chunks, in ascending user order, each bounded by
``ROUND_BUFFER_BYTES`` of examples. Within a chunk the clients train in
lockstep, longest first: step ``j`` applies the ``j``-th example of every
client that has one, a prefix of them, as one batch of numpy operations over
a round buffer of the rows the clients touch. Upload noise is added in place
on that buffer, and each chunk's uploads are folded into one running sum per
round, which is divided by the uploader counts after the last chunk. The
result equals training the clients one after another bit for bit, and a
simulation is a deterministic function of (dataset, config, seed).
"""

from __future__ import annotations

import math
import mmap
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .data import SplitDataset
from .errors import ConfigError
from .numerics import rekey, sigmoid, stream_rng

PROB_CLAMP = 1e-12
INIT_STD = 0.01
# example bound of one chunk of a round's clients; a larger client is a chunk alone
ROUND_BUFFER_BYTES = 16 * 2**20


@dataclass
class ClientState:
    """Private per-user state; the client's embedding is row ``user_id`` of
    the simulation's one user matrix, which never leaves the clients.

    ``warm_positives`` are the user's training items and ``negative_pool``
    the warm items they never interacted with, both fixed for the run.
    ``rng`` is the client's one generator, built on first use and re-keyed to
    the client's stream of each round it is sampled in.
    """

    user_id: int
    warm_positives: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    negative_pool: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    rng: np.random.Generator | None = field(default=None, repr=False, compare=False)


class UploadRows(Mapping):
    """Read-only ``item -> row`` view over sorted item ``ids`` and their ``block``.

    A client's block is its slice of the round buffer, so an upload copies no
    rows; iterating yields the item ids in ascending order.
    """

    __slots__ = ("ids", "block", "_slot")

    def __init__(self, ids: np.ndarray, block: np.ndarray) -> None:
        self.ids = ids
        self.block = block
        self._slot: dict[int, int] | None = None

    def __getitem__(self, item: int) -> np.ndarray:
        if self._slot is None:
            self._slot = {i: s for s, i in enumerate(self.ids.tolist())}
        return self.block[self._slot[item]]

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return self.ids.size


@dataclass
class ClientUpload:
    """Touched item rows only; there is no field for the user embedding."""

    user_id: int
    rows: UploadRows


@dataclass
class RoundReport:
    """One round's losses, phase timings, upload counters and diagnostics.

    ``run_round`` fills in the client phase: the mean client loss, the time
    of the negative draws, the lockstep kernel, upload noise and
    aggregation, and the counters. The training loop trains the denoiser
    before it and records the mean batch loss in ``diffusion_loss`` (``None``
    on a round that the light cadence skips) and the epochs' time in
    ``generator_seconds``; ``seconds`` spans the denoiser epochs and the
    client phase. After the round the training loop runs one reverse chain
    over the cold and the validation items, whose cold rows are the round's
    diagnostic rows, and scores the validation rows; it records their times
    in ``chain_seconds`` and ``val_seconds``, the validation recall in
    ``val_recall`` (``None`` when no user was evaluable), and the warm/cold
    distribution distances of the cold rows. The counters are
    deterministic: rows uploaded over all clients, the distinct items among
    them, and the bytes of those float64 rows.
    """

    round: int
    mean_client_loss: float
    seconds: float
    draw_seconds: float
    kernel_seconds: float
    noise_seconds: float
    aggregate_seconds: float
    upload_rows: int
    distinct_items: int
    payload_bytes: int
    diffusion_loss: float | None = None
    generator_seconds: float = 0.0
    chain_seconds: float = 0.0
    val_seconds: float = 0.0
    val_recall: float | None = None
    centroid_distance: float = 0.0
    covariance_distance: float = 0.0


def score_items(user_embedding: np.ndarray, item_rows: np.ndarray) -> np.ndarray:
    """Interaction probabilities: logistic of each item row dotted with the user."""
    return sigmoid(item_rows @ user_embedding)


def _user_item_mask(interactions: np.ndarray, n_users: int, n_items: int) -> np.ndarray:
    """Boolean ``(n_users, n_items)`` matrix, True at every interaction."""
    mask = np.zeros((n_users, n_items), dtype=bool)
    mask[interactions[:, 0], interactions[:, 1]] = True
    return mask


def init_simulation(
    split: SplitDataset, config: RunConfig
) -> tuple[np.ndarray, np.ndarray, list[ClientState]]:
    """Gaussian-initialized item table and user matrix, and clients with
    static training pools.

    The ``init`` stream draws the ``(n_items, dim)`` item table, then the
    ``(n_users, dim)`` user matrix, whose rows are the same numbers as one
    draw per user in user order. A client's positives are its training items
    in ascending order, and its negative pool the warm items, in warm order,
    that it never interacted with.
    """
    ds = split.dataset
    rng = stream_rng(config.seed, "init")
    table = INIT_STD * rng.standard_normal((ds.n_items, config.dim))
    users = INIT_STD * rng.standard_normal((ds.n_users, config.dim))
    warm = np.array(split.warm_items, dtype=np.int64)
    trained = _user_item_mask(split.train_interactions, ds.n_users, ds.n_items)
    pools = ~_user_item_mask(ds.interactions, ds.n_users, ds.n_items)[:, warm]
    clients = [
        ClientState(
            user_id=u,
            warm_positives=np.flatnonzero(trained[u]),
            negative_pool=warm[pools[u]],
        )
        for u in range(ds.n_users)
    ]
    return table, users, clients


def sample_negatives(clients: list[ClientState], k: int) -> list[np.ndarray]:
    """Each client's ``k`` negatives per positive for one pass, round-wide.

    Every client with positives draws one ``(positives, k)`` block of
    uniforms from its own stream (``client.rng``), before any other draw on
    it, into one round array. Floyd's algorithm (Bentley & Floyd 1987) then
    turns each row into ``k`` distinct pool indices, one vectorized step per
    column over every positive of every client: ``t = floor(u * (j + 1))`` with
    ``j = |pool| - k + c``, and ``t = j`` where an earlier column holds ``t``.
    That gives uniform k-subsets without replacement, and because the streams
    are per client a client's negatives do not depend on who else was sampled.
    Returns, in client order, a ``(positives, k)`` array of item ids.
    """
    bounds = np.cumsum([0, *(c.warm_positives.size for c in clients)])
    u = np.empty((bounds[-1], k))
    pool_sizes = np.empty(bounds[-1], dtype=np.int64)
    for client, lo, hi in zip(clients, bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        if k > client.negative_pool.size:
            raise ConfigError(
                f"user {client.user_id}: negative pool too small for {k} draws"
            )
        client.rng.random(out=u[lo:hi])
        pool_sizes[lo:hi] = client.negative_pool.size
    picked = np.empty((bounds[-1], k), dtype=np.int64)
    for c in range(k):
        j = pool_sizes - (k - c)
        t = np.floor(u[:, c] * (j + 1)).astype(np.int64)
        taken = (picked[:, :c] == t[:, None]).any(axis=1)
        picked[:, c] = np.where(taken, j, t)
    return [
        client.negative_pool[picked[lo:hi]]
        for client, lo, hi in zip(clients, bounds[:-1], bounds[1:])
    ]


class _RoundBuffer:
    """The anonymous memory mapping that the chunks of one round fill in turn.

    The round buffer is the kernel's one large allocation. Taken from malloc,
    freeing it raises glibc's dynamic mmap threshold, so later temporaries stay
    on the heap and the process's peak resident memory grows by about the
    buffer's size (``peak_rss_mb`` +4-7 % on the ``cold-4x-sparse`` benchmark
    workload). The first chunk maps exactly its rows; a later chunk reuses the
    mapping and replaces it only when it needs more rows than it holds. A
    mapping goes back to the system when the last view of it (a chunk's
    uploads) is dropped, and the last one when the round drops this buffer.
    """

    def __init__(self) -> None:
        self.mapping: mmap.mmap | None = None

    def take(self, table: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """``table[ids]`` at the start of the mapping."""
        rows, dim = ids.size, table.shape[1]
        if self.mapping is None or len(self.mapping) < rows * dim * 8:
            self.mapping = mmap.mmap(-1, max(rows * dim * 8, 1))
        buffer = np.frombuffer(self.mapping, dtype=np.float64, count=rows * dim)
        # mode="clip" writes straight into out; the default mode copies via a temporary
        return np.take(table, ids, axis=0, out=buffer.reshape(rows, dim), mode="clip")


def _chunks(
    clients: list[ClientState], example_bytes: int
) -> Iterator[list[ClientState]]:
    """Consecutive runs of ``clients`` whose examples fit ``ROUND_BUFFER_BYTES``.

    A client's examples (positives times ``example_bytes``) bound the bytes
    of its buffer rows. Every run holds at least one client, so only a run of
    one client can exceed the budget.
    """
    chunk: list[ClientState] = []
    size = 0
    for client in clients:
        need = client.warm_positives.size * example_bytes
        if chunk and size + need > ROUND_BUFFER_BYTES:
            yield chunk
            chunk, size = [], 0
        chunk.append(client)
        size += need
    if chunk:
        yield chunk


def buffer_index(
    sequences: list[np.ndarray], n_items: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The round buffer's rows, each client's block of them, and every example's row.

    Each client's block holds its touched items in ascending order, and the
    blocks follow in client order. One ``np.unique`` over the keys
    ``client * n_items + item`` of every example yields exactly those rows,
    and its inverse is each example's buffer row, in the order of the
    concatenated ``sequences``. The keys are int32 while every key fits and
    int64 otherwise. Returns the item of each buffer row, the ``len(sequences)
    + 1`` block bounds and the inverse.
    """
    n_clients = len(sequences)
    dtype = np.int32 if n_clients * n_items < 2**31 else np.int64
    lengths = [s.size for s in sequences]
    keys = np.repeat(np.arange(n_clients, dtype=dtype) * dtype(n_items), lengths)
    keys += np.concatenate([np.zeros(0, dtype), *sequences], dtype=dtype)
    rows, inverse = np.unique(keys, return_inverse=True)
    owners = rows // dtype(n_items)
    bounds = np.searchsorted(owners, np.arange(n_clients + 1))
    items = (rows - owners * dtype(n_items)).astype(np.int64)
    return items, bounds, inverse


def train_clients_lockstep(
    clients: list[ClientState],
    table: np.ndarray,
    users: np.ndarray,
    config: RunConfig,
    seconds: dict[str, float],
    round_buffer: _RoundBuffer,
) -> tuple[list[UploadRows], list[float]]:
    """One local pass for every client, all clients advancing together.

    Per positive, a client takes one BCE-SGD step on it and then on each of
    its negatives, which ``sample_negatives`` draws from its stream first.
    Clients read the same table and touch disjoint copies of its rows, so step
    ``j`` applies every client's ``j``-th example at once; each client still
    sees exactly its own sequence of updates, in order, and the result equals
    training the clients one after another bit for bit. The kernel's columns
    are the clients by example count, longest first and stable, so the
    clients active at step ``j`` are a prefix of them: each step slices its
    users and loss sums, and takes its slots by that prefix, instead of
    masking them. The round buffer and the slot table stay in client order.

    The round buffer holds each client's touched rows (its sorted unique
    items) copied from ``table``, which is never written; it is taken from
    ``round_buffer``, whose mapping the chunks of a round share. The clients'
    rows of the user matrix ``users`` are gathered once and written back
    after the last step. Returns, in client order, an upload view of each
    client's block of the buffer and the client's mean example loss (0.0
    without examples), and adds the wall-clock time of the draws to
    ``seconds["draw"]`` and of the rest to ``seconds["kernel"]``.
    """
    k = config.negatives_per_positive
    lr = config.local_lr
    start = time.perf_counter()
    negatives = sample_negatives(clients, k)
    drawn = time.perf_counter()
    sequences = [
        np.column_stack((c.warm_positives, negs)).ravel()
        for c, negs in zip(clients, negatives)
    ]
    lengths = np.array([s.size for s in sequences])
    items, bounds, inverse = buffer_index(sequences, table.shape[0])
    # slots[j, c]: buffer row of client c's j-th example
    steps = np.arange(int(lengths.max(initial=0)))
    slots = np.zeros((steps.size, len(clients)), dtype=np.int32)
    slots.T[steps < lengths[:, None]] = inverse
    # the kernel's columns: clients by example count, longest first, so that
    # the clients with a j-th example are the first active[j] columns
    columns = np.argsort(-lengths, kind="stable")
    active = np.searchsorted(-lengths[columns], -steps)
    buffer = round_buffer.take(table, items)
    owners = np.array([c.user_id for c in clients], dtype=np.int64)[columns]
    embeddings = users[owners]
    loss_sums = np.zeros(len(clients))
    for j, n in enumerate(active.tolist()):
        y = 1.0 if j % (1 + k) == 0 else 0.0
        step_slots = slots[j, columns[:n]]
        e = embeddings[:n]
        r = buffer[step_slots]
        y_hat = sigmoid(np.matmul(e[:, None, :], r[:, :, None])[:, 0, 0])
        p = np.clip(y_hat, PROB_CLAMP, 1.0 - PROB_CLAMP)
        if y == 0.0:
            p = 1.0 - p
        # math.log, not np.log: the vector log may differ in the last bit
        loss_sums[:n] -= np.fromiter(map(math.log, p.tolist()), float, n)
        g = y_hat - y
        buffer[step_slots] = r - (lr * g)[:, None] * e
        e -= lr * (g[:, None] * r)

    users[owners] = embeddings
    losses = [0.0] * len(clients)
    for c, n, loss_sum in zip(
        columns.tolist(), lengths[columns].tolist(), loss_sums.tolist()
    ):
        if n:
            losses[c] = loss_sum / n
    uploads = [
        UploadRows(items[lo:hi], buffer[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    seconds["draw"] += drawn - start
    seconds["kernel"] += time.perf_counter() - drawn
    return uploads, losses


def _nonzero_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms from ``rng``, every exact ``0.0`` skipped and redrawn."""
    u = rng.random(n)
    # a min reduction is the cheapest test for a zero among uniforms
    while u.min(initial=1.0) == 0.0:
        kept = u[u != 0.0]
        u = np.concatenate((kept, rng.random(n - kept.size)))
    return u


def apply_ldp(rows: UploadRows, scale: float, rng: np.random.Generator) -> UploadRows:
    """Per-entry Laplace noise on upload rows; scale 0 is a bitwise no-op.

    The noise is added in place, since the client never reads its rows again.
    It is the inverse CDF of one draw of uniforms ``U`` over the rows in
    ascending item order, the doubles that ``Generator.laplace`` consumes,
    with an exact ``0.0`` skipped as it skips one:
    ``copysign(scale * log(min(U + U, (2.0 - U) - U)), U - 0.5)``. That is
    numpy's ``loc - scale * log(2.0 - U - U)`` for ``U >= 0.5`` and
    ``loc + scale * log(U + U)`` below, at ``loc = 0``, without a branch:
    the ``min`` picks the branch's argument and the sign of ``U - 0.5``
    (that of ``(U + U) - 1.0``, both exact) its sign. Only the vector
    ``np.log`` may differ from libm's ``log`` in the last bit, so the noise
    equals ``rng.laplace(0.0, scale, size)`` to within ``1e-12 * scale``.
    """
    if scale == 0.0:
        return rows
    u = _nonzero_uniforms(rng, rows.block.size).reshape(rows.block.shape)
    noise = np.subtract(2.0, u)
    noise -= u
    u += u
    np.minimum(noise, u, out=noise)
    np.log(noise, out=noise)
    noise *= scale
    u -= 1.0
    np.copysign(noise, u, out=noise)
    rows.block += noise
    return rows


def aggregate(
    total: np.ndarray, count: np.ndarray, uploads: list[ClientUpload]
) -> None:
    """Fold ``uploads`` into a round's running ``total`` and per-item ``count``.

    Uploads are added in ascending client order, one ``+=`` each, onto a
    total that starts at ``-0.0``, which adds to every float, ``+0.0`` and
    ``-0.0`` included, without changing it, so an item's first upload lands
    as is. A round folds its chunks in ascending client order too, so the
    additions do not depend on where the chunks split or on the order
    uploads arrive in within one.
    """
    ordered = sorted(uploads, key=lambda u: u.user_id)
    for up in ordered:
        total[up.rows.ids] += up.rows.block
    ids = np.concatenate([np.zeros(0, np.int64), *(up.rows.ids for up in ordered)])
    count += np.bincount(ids, minlength=count.size)


def mean_table(table: np.ndarray, total: np.ndarray, count: np.ndarray) -> None:
    """Row-wise arithmetic mean over uploaders, written into ``table``;
    untouched rows keep their values.

    ``total`` and ``count`` are what ``aggregate`` folded; the sum divided by
    the count equals ``np.mean(np.stack(rows), axis=0)`` bit for bit.
    """
    touched = count > 0
    table[touched] = total[touched] / count[touched, None]


def run_round(
    table: np.ndarray,
    users: np.ndarray,
    clients: list[ClientState],
    config: RunConfig,
    round_index: int,
) -> RoundReport:
    """Round ``round_index``'s client phase, which updates ``table`` and
    ``users`` in place.

    Samples ``ceil(client_sample_ratio * n)`` clients (at least one) from the
    round's ``sampling`` stream, in ascending user order, and re-keys each
    one's stream to ``("client", round_index, user_id)``. Distributes the
    table, trains the sampled clients in chunks of at most
    ``ROUND_BUFFER_BYTES`` of examples (or one client), each chunk in
    lockstep on its clients' rows of ``users``, folds each chunk's noised
    uploads into one running sum, and writes the mean of every uploaded row
    into ``table`` after the last chunk; rows that no client uploaded, and
    the rows of users not sampled, keep their bits. The phase timings sum
    over the chunks; the denoiser's loss and time are the training loop's to
    fill in.
    """
    start = time.perf_counter()
    seed = config.seed
    n_sampled = max(1, math.ceil(config.client_sample_ratio * len(clients)))
    picked = stream_rng(seed, "sampling", round_index).choice(
        len(clients), size=n_sampled, replace=False
    )
    sampled = [clients[i] for i in sorted(picked)]

    for c in sampled:
        c.rng = rekey(c.rng, seed, "client", round_index, c.user_id)
    dim = table.shape[1]
    total = count = None
    round_buffer = _RoundBuffer()
    phase = dict.fromkeys(("draw", "kernel", "noise", "aggregate"), 0.0)
    losses: list[float] = []
    example_bytes = (1 + config.negatives_per_positive) * dim * 8
    for chunk in _chunks(sampled, example_bytes):
        rows, chunk_losses = train_clients_lockstep(
            chunk, table, users, config, phase, round_buffer
        )
        noise_start = time.perf_counter()
        uploads = [
            ClientUpload(user_id=c.user_id, rows=apply_ldp(r, config.ldp_scale, c.rng))
            for c, r in zip(chunk, rows)
        ]
        aggregate_start = time.perf_counter()
        if total is None:
            # after the first kernel, so a one-chunk round peaks where it did unchunked
            total = np.full_like(table, -0.0)
            count = np.zeros(table.shape[0], dtype=np.int64)
        aggregate(total, count, uploads)
        phase["noise"] += aggregate_start - noise_start
        phase["aggregate"] += time.perf_counter() - aggregate_start
        losses += chunk_losses
        # the next chunk may replace the mapping these view
        del rows, uploads
    mean_start = time.perf_counter()
    mean_table(table, total, count)
    phase["aggregate"] += time.perf_counter() - mean_start
    losses = [loss for c, loss in zip(sampled, losses) if c.warm_positives.size]
    mean_loss = float(np.mean(losses)) if losses else 0.0
    upload_rows = int(count.sum())
    return RoundReport(
        round=round_index,
        mean_client_loss=mean_loss,
        seconds=time.perf_counter() - start,
        draw_seconds=phase["draw"],
        kernel_seconds=phase["kernel"],
        noise_seconds=phase["noise"],
        aggregate_seconds=phase["aggregate"],
        upload_rows=upload_rows,
        distinct_items=int(np.count_nonzero(count)),
        payload_bytes=upload_rows * dim * 8,
    )
