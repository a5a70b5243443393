"""Federated matrix-factorization simulator.

Clients hold a private user embedding and train locally on a distributed copy
of the global item table; only touched item rows travel back to the server,
optionally with per-entry Laplace noise. The server averages uploads row-wise,
trains the diffusion generator on warm rows, and redistributes.

Within a round every client reads the same table and draws from its own
per-(round, client) RNG stream, so the sampled clients train in lockstep: step
``j`` applies every client's ``j``-th example as one batch of numpy operations
over a round buffer of the rows the clients touch. Upload noise is added in
place on that buffer, and the uploads are aggregated once per round. The
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

from .data import SplitDataset
from .diffusion import DenoisingGenerator
from .errors import ConfigError
from .mlp import TwoLayerMLP
from .modality import FeatureTable
from .numerics import sigmoid, stream_rng

PROB_CLAMP = 1e-12
INIT_STD = 0.01


@dataclass
class FedConfig:
    rounds: int = 100
    local_lr: float = 0.1
    negatives_per_positive: int = 5
    batch_size: int = 256
    client_sample_ratio: float = 1.0
    server_epochs: int = 1
    ldp_scale: float = 0.0
    light_mode: bool = False
    dim: int = 64

    def validate(self) -> None:
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.local_lr <= 0:
            raise ConfigError("local_lr must be positive")
        if self.negatives_per_positive < 1:
            raise ConfigError("negatives_per_positive must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (0.0 < self.client_sample_ratio <= 1.0):
            raise ConfigError(
                f"client_sample_ratio={self.client_sample_ratio} outside (0, 1]"
            )
        if self.server_epochs < 1:
            raise ConfigError("server_epochs must be >= 1")
        if self.ldp_scale < 0:
            raise ConfigError("ldp_scale must be non-negative")
        if self.dim < 1:
            raise ConfigError("dim must be positive")


@dataclass
class ClientState:
    """Private per-user state; the embedding never leaves the client.

    ``warm_positives`` are the user's training items and ``negative_pool``
    the warm items they never interacted with, both fixed for the run.
    """

    user_id: int
    user_embedding: np.ndarray
    warm_positives: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    negative_pool: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))


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
class GlobalItemTable:
    embeddings: np.ndarray  # (n_items, dim) float64
    round: int = 0


@dataclass
class ServerState:
    table: GlobalItemTable
    pending: list[ClientUpload] = field(default_factory=list)


@dataclass
class RoundReport:
    round: int
    mean_client_loss: float
    diffusion_loss: float | None
    seconds: float


def predict_score(user_embedding: np.ndarray, item_embedding: np.ndarray) -> float:
    """Interaction probability: logistic of the embedding dot product."""
    return float(sigmoid(float(np.dot(user_embedding, item_embedding))))


def score_items(user_embedding: np.ndarray, item_rows: np.ndarray) -> np.ndarray:
    """Vectorized ``predict_score`` over item rows."""
    return sigmoid(item_rows @ user_embedding)


def bce_loss(y: float, y_hat: float) -> float:
    p = min(max(y_hat, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))


def init_simulation(
    split: SplitDataset, config: FedConfig, seed: int
) -> tuple[ServerState, list[ClientState]]:
    """Gaussian-initialized item table and clients with static training pools."""
    config.validate()
    ds = split.dataset
    rng = stream_rng(seed, "init")
    table = GlobalItemTable(
        embeddings=INIT_STD * rng.standard_normal((ds.n_items, config.dim))
    )
    train_by_user = split.train_items_by_user()
    warm = np.array(split.warm_items, dtype=np.int64)
    clients = []
    for u in range(ds.n_users):
        positives = np.array(sorted(train_by_user.get(u, ())), dtype=np.int64)
        interacted = np.fromiter(ds.by_user()[u], dtype=np.int64)
        pool = warm[~np.isin(warm, interacted)]  # keeps the warm order
        clients.append(
            ClientState(
                user_id=u,
                user_embedding=INIT_STD * rng.standard_normal(config.dim),
                warm_positives=positives,
                negative_pool=pool,
            )
        )
    return ServerState(table=table), clients


def _draw_examples(
    state: ClientState, rng: np.random.Generator, k: int
) -> np.ndarray:
    """The client's example items for one pass, in training order.

    Each positive is followed by its ``k`` negatives, drawn with one
    ``rng.choice`` per positive in positive order before any other draw on the
    stream, so the stream is consumed exactly as when each client trained in
    turn and the upload noise drawn after it is unchanged.
    """
    if state.warm_positives.size == 0:
        return np.zeros(0, dtype=np.int64)
    if k > state.negative_pool.size:
        raise ConfigError(
            f"user {state.user_id}: negative pool too small for {k} draws"
        )
    examples = np.empty((state.warm_positives.size, 1 + k), dtype=np.int64)
    examples[:, 0] = state.warm_positives
    for row in examples:
        row[1:] = rng.choice(state.negative_pool, size=k, replace=False)
    return examples.ravel()


def _round_buffer(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``table[ids]`` in an anonymous memory mapping of its own.

    The round buffer is the kernel's one large allocation. Taken from malloc,
    freeing it raises glibc's dynamic mmap threshold, so later temporaries stay
    on the heap and the process's peak resident memory grows by about the
    buffer's size (``peak_rss_mb`` +4-7 % on the ``cold-4x-sparse`` benchmark
    workload). The mapping goes back to the system when the last view of it
    (the uploads) is dropped.
    """
    rows, dim = ids.size, table.shape[1]
    mapping = mmap.mmap(-1, max(rows * dim * 8, 1))
    buffer = np.frombuffer(mapping, dtype=np.float64, count=rows * dim)
    # mode="clip" writes straight into out; the default mode copies via a temporary
    return np.take(table, ids, axis=0, out=buffer.reshape(rows, dim), mode="clip")


def train_clients_lockstep(
    clients: list[ClientState],
    table: np.ndarray,
    rngs: list[np.random.Generator],
    config: FedConfig,
) -> tuple[list[UploadRows], list[float]]:
    """One local pass for every client, all clients advancing together.

    Per positive, a client takes one BCE-SGD step on it and then on each of
    its negatives. Clients read the same table and touch disjoint copies of
    its rows, so step ``j`` applies every client's ``j``-th example at once;
    each client still sees exactly its own sequence of updates, in order, and
    the result equals training the clients one after another bit for bit.

    The round buffer holds each client's touched rows (its sorted unique
    items) copied from ``table``, which is never written. User embeddings are
    updated in place. Returns, in client order, an upload view of each
    client's block of the buffer and the client's mean example loss (0.0
    without examples).
    """
    k = config.negatives_per_positive
    lr = config.local_lr
    sequences = [_draw_examples(c, rng, k) for c, rng in zip(clients, rngs)]
    lengths = np.array([s.size for s in sequences])
    # slots[j, c]: buffer row of client c's j-th example
    slots = np.zeros((int(lengths.max(initial=0)), len(clients)), dtype=np.int32)
    items_of = []
    offset = 0
    for c, sequence in enumerate(sequences):
        items, slot = np.unique(sequence, return_inverse=True)
        items_of.append(items)
        slots[: slot.size, c] = offset + slot
        offset += items.size
    buffer = _round_buffer(table, np.concatenate(items_of))
    users = np.stack([c.user_embedding for c in clients])
    loss_sums = np.zeros(len(clients))
    for j in range(slots.shape[0]):
        active = lengths > j
        y = 1.0 if j % (1 + k) == 0 else 0.0
        step_slots = slots[j, active]
        e = users[active]
        r = buffer[step_slots]
        y_hat = sigmoid(np.matmul(e[:, None, :], r[:, :, None])[:, 0, 0])
        p = np.clip(y_hat, PROB_CLAMP, 1.0 - PROB_CLAMP)
        if y == 0.0:
            p = 1.0 - p
        # math.log, not np.log: the vector log may differ in the last bit
        loss_sums[active] -= [math.log(v) for v in p.tolist()]
        g = y_hat - y
        buffer[step_slots] = r - (lr * g)[:, None] * e
        users[active] = e - lr * (g[:, None] * r)

    for client, user, n in zip(clients, users, lengths):
        if n:
            client.user_embedding[...] = user
    bounds = np.cumsum([0, *(items.size for items in items_of)])
    uploads = [
        UploadRows(items, buffer[bounds[c] : bounds[c + 1]])
        for c, items in enumerate(items_of)
    ]
    losses = [float(s / n) if n else 0.0 for s, n in zip(loss_sums, lengths)]
    return uploads, losses


def apply_ldp(rows: UploadRows, scale: float, rng: np.random.Generator) -> UploadRows:
    """Per-entry Laplace noise on upload rows; scale 0 is a bitwise no-op.

    The noise is added in place, since the client never reads its rows again.
    It comes from one draw over the rows in ascending item order, which equals
    one draw per row in that order.
    """
    if scale < 0:
        raise ConfigError("ldp scale must be non-negative")
    if scale == 0.0:
        return rows
    rows.block += rng.laplace(0.0, scale, size=rows.block.shape)
    return rows


def aggregate(table: GlobalItemTable, uploads: list[ClientUpload]) -> GlobalItemTable:
    """Row-wise arithmetic mean over uploaders; untouched rows carry over.

    Uploads are summed in ascending client order (the first upload of an item
    assigns, later ones add) and divided by the count, which equals
    ``np.mean(np.stack(rows), axis=0)`` bit for bit and does not depend on the
    order uploads arrive in.
    """
    new = table.embeddings.copy()
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
    return GlobalItemTable(embeddings=new, round=table.round)


def diffusion_trains_this_round(round_index: int, light_mode: bool) -> bool:
    """Light cadence trains on odd rounds only (1-based), full on every round."""
    return (round_index % 2 == 1) if light_mode else True


def run_round(
    server: ServerState,
    clients: list[ClientState],
    generator: DenoisingGenerator | None,
    features: FeatureTable | None,
    split: SplitDataset,
    config: FedConfig,
    seed: int,
) -> RoundReport:
    """One federated round.

    Aggregates uploads still pending (if any), trains the diffusion generator
    on warm rows unless the light cadence skips this round, distributes the
    table, trains the sampled clients in lockstep, and leaves their noised
    uploads pending for ``finalize_table``.
    """
    start = time.perf_counter()
    round_index = server.table.round + 1
    if server.pending:
        server.table = aggregate(server.table, server.pending)
        server.pending = []
    server.table.round = round_index

    diffusion_loss = None
    if generator is not None and diffusion_trains_this_round(
        round_index, config.light_mode
    ):
        if features is None:
            raise ConfigError("diffusion training requires item features")
        warm = np.array(split.warm_items, dtype=np.int64)
        diffusion_loss = generator.train_epochs(
            server.table.embeddings[warm],
            features.rows[warm],
            stream_rng(seed, "diffusion", round_index),
            epochs=config.server_epochs,
            batch_size=config.batch_size,
        )

    if config.client_sample_ratio >= 1.0:
        sampled = clients
    else:
        count = max(1, math.ceil(config.client_sample_ratio * len(clients)))
        picked = stream_rng(seed, "sampling", round_index).choice(
            len(clients), size=count, replace=False
        )
        sampled = [clients[i] for i in sorted(picked)]
    if not sampled:
        raise ConfigError("no clients sampled this round")

    rngs = [stream_rng(seed, "client", round_index, c.user_id) for c in sampled]
    rows, losses = train_clients_lockstep(
        sampled, server.table.embeddings, rngs, config
    )
    server.pending = [
        ClientUpload(user_id=c.user_id, rows=apply_ldp(r, config.ldp_scale, rng))
        for c, r, rng in zip(sampled, rows, rngs)
    ]
    losses = [loss for c, loss in zip(sampled, losses) if c.warm_positives.size]
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return RoundReport(
        round=round_index,
        mean_client_loss=mean_loss,
        diffusion_loss=diffusion_loss,
        seconds=time.perf_counter() - start,
    )


def finalize_table(server: ServerState) -> None:
    """Fold the pending uploads into the table; a no-op when none are pending."""
    if server.pending:
        server.table = aggregate(server.table, server.pending)
        server.pending = []


def train_baseline_mapper(
    features: np.ndarray,
    embeddings: np.ndarray,
    epochs: int,
    lr: float,
    rng: np.random.Generator,
    hidden: int = 128,
) -> TwoLayerMLP:
    """Deterministic feature-to-embedding regressor used as the non-generative foil."""
    if features.shape[0] != embeddings.shape[0]:
        raise ConfigError(
            f"feature rows {features.shape[0]} != embedding rows {embeddings.shape[0]}"
        )
    if features.shape[0] == 0:
        raise ConfigError("cannot train the mapper on zero rows")
    mlp = TwoLayerMLP.init(features.shape[1], hidden, embeddings.shape[1], rng)
    mlp.sgd_train(features, embeddings, epochs=epochs, lr=lr)
    return mlp
