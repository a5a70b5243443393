"""Interaction datasets: loading, splitting, synthetic generation.

Interaction files are CSV with rows ``user_id,item_id`` and an optional third
``timestamp`` column, which is checked and then dropped: no stage uses time.
Ids of any textual form are densified to ``0..n-1`` in first-appearance order
and the mapping is persisted next to the dataset as two id-map files with rows
``original_id,dense_id``, each written only when it is missing or its bytes
differ.

Interactions are ``(N, 2)`` int64 arrays of dense ``(user, item)`` rows, built
as arrays from the first step: the loader collects ids as flat ints, the
generator takes the indices of its hit matrix, and the split selects rows with
one mask.
"""

from __future__ import annotations

import csv
import io
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import write_atomic
from .config import RunConfig
from .errors import ConfigError, DataFormatError, not_utf8
from .numerics import stream_rng

log = logging.getLogger(__name__)


@dataclass
class Dataset:
    """Deduplicated user/item interactions over dense ids.

    ``interactions`` is an ``(N, 2)`` int64 array of ``(user, item)`` rows.
    """

    n_users: int
    n_items: int
    interactions: np.ndarray
    user_ids: list[str] = field(default_factory=list)
    item_ids: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.user_ids:
            self.user_ids = [str(u) for u in range(self.n_users)]
        if not self.item_ids:
            self.item_ids = [str(i) for i in range(self.n_items)]


@dataclass
class SplitDataset:
    """Item-based warm/validation/cold split of a dataset.

    Each ``*_interactions`` array holds the dataset's rows whose item is of
    that kind, in dataset order.
    """

    dataset: Dataset
    warm_items: list[int]
    val_items: list[int]
    cold_items: list[int]
    train_interactions: np.ndarray
    val_interactions: np.ndarray
    test_interactions: np.ndarray

    def test_items_by_user(self) -> dict[int, set[int]]:
        return _items_by_user(self.test_interactions)

    def val_items_by_user(self) -> dict[int, set[int]]:
        return _items_by_user(self.val_interactions)


def _items_by_user(interactions: np.ndarray) -> dict[int, set[int]]:
    """Item set per user, for the users that appear in ``interactions``.

    One stable sort groups the rows by user; keys and items are Python ints.
    """
    users, items = interactions[np.argsort(interactions[:, 0], kind="stable")].T
    starts = np.flatnonzero(np.diff(users, prepend=-1)).tolist()
    items = items.tolist()
    ends = starts[1:] + [len(items)]
    return {users[a].item(): set(items[a:b]) for a, b in zip(starts, ends)}


def _id_map_path(path: str, kind: str) -> str:
    base, _ = os.path.splitext(path)
    return f"{base}.{kind}_idmap.csv"


def _csv_bytes(rows) -> bytes:
    """``rows`` as ``csv.writer`` writes them, encoded as UTF-8."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _write_id_map(path: str, originals: list[str]) -> None:
    """Write the map (``write_atomic``) unless ``path`` already holds exactly
    its bytes."""
    payload = _csv_bytes(
        [("original_id", "dense_id"), *zip(originals, range(len(originals)))]
    )
    try:
        with open(path, "rb") as f:
            if f.read() == payload:
                return
    except FileNotFoundError:
        pass
    write_atomic(path, payload)


def utf8_lines(path: str, newline: str | None = None):
    """The lines of the text file at ``path`` (``newline`` as for ``open``),
    read as UTF-8 whatever the locale; a file that is not UTF-8 text is
    refused."""
    with open(path, encoding="utf-8", newline=newline) as f:
        try:
            yield from f
        except UnicodeDecodeError as exc:
            raise DataFormatError(not_utf8(path, exc)) from None


def csv_rows(path: str, header: tuple[str, ...]):
    """``(line number, row)`` for each non-blank row of the CSV at ``path``
    (``utf8_lines``); the number is that of the line the row starts on, as a
    quoted field may hold line breaks.

    The first non-blank row is a header, and skipped, when its first field
    is one of ``header`` (compared lowercased). A row that is not valid CSV
    is refused with its line.
    """
    reader = csv.reader(utf8_lines(path, newline=""))
    first = True
    end = 0  # the line the previous row ended on
    try:
        for row in reader:
            start, end = end + 1, reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if first:
                first = False
                if row[0].strip().lower() in header:
                    continue
            yield start, row
    except csv.Error as exc:
        raise DataFormatError(f"{path}:{end + 1}: {exc}") from None


def load_interactions(path: str) -> Dataset:
    """Load an interaction CSV, densify ids, and persist the id maps.

    Duplicate ``(user, item)`` pairs are dropped with a logged count, the
    first of each kept in file order; a malformed row raises with its line
    number. A ``user_id,...`` header as the first non-blank row is
    tolerated (``csv_rows``). Rows are
    parsed one by one into a flat list of ids, which one ``np.unique``
    deduplicates.
    """
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    ids: list[int] = []  # u0, i0, u1, i1, ...
    stamped: list[bool] = []  # whether each row has a timestamp
    for lineno, row in csv_rows(path, ("user_id", "user")):
        if len(row) not in (2, 3):
            raise DataFormatError(
                f"{path}:{lineno}: expected 2 or 3 columns, got {len(row)}"
            )
        u_raw, i_raw = row[0].strip(), row[1].strip()
        if not u_raw or not i_raw:
            raise DataFormatError(f"{path}:{lineno}: empty user or item id")
        if len(row) == 3:
            try:
                float(row[2])
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: bad timestamp {row[2]!r}"
                ) from exc
        ids.append(users.setdefault(u_raw, len(users)))
        ids.append(items.setdefault(i_raw, len(items)))
        stamped.append(len(row) == 3)
    if not ids:
        raise DataFormatError(f"{path}: no interactions found")
    interactions = np.array(ids, dtype=np.int64).reshape(-1, 2)
    # the first row of each pair: np.unique sorts stably for return_index
    _, first = np.unique(
        interactions[:, 0] * len(items) + interactions[:, 1], return_index=True
    )
    duplicates = len(interactions) - first.size
    if duplicates:
        first.sort()
        interactions = interactions[first]
        stamped = [stamped[r] for r in first.tolist()]
    if any(stamped) and not all(stamped):
        raise DataFormatError(f"{path}: timestamp column present on only some rows")
    if duplicates:
        log.warning("%s: dropped %d duplicate interactions", path, duplicates)
    user_list = list(users)
    item_list = list(items)
    _write_id_map(_id_map_path(path, "users"), user_list)
    _write_id_map(_id_map_path(path, "items"), item_list)
    return Dataset(
        n_users=len(users),
        n_items=len(items),
        interactions=interactions,
        user_ids=user_list,
        item_ids=item_list,
    )


def save_interactions(dataset: Dataset, path: str) -> None:
    """Write interactions as ``user_id,item_id`` CSV rows using the original
    (pre-densified) ids, atomically (``write_atomic``)."""
    users, items = dataset.user_ids, dataset.item_ids
    write_atomic(
        path,
        _csv_bytes((users[u], items[i]) for u, i in dataset.interactions.tolist()),
    )


def split_items(
    dataset: Dataset, ratios: tuple[float, float, float], seed: int
) -> SplitDataset:
    """Partition items into warm/val/cold by shuffled cumulative ratios.

    Counts use floor rounding for val and cold with the remainder assigned to
    warm, so 10 items at (0.6, 0.1, 0.3) give 6/1/3. Each interaction goes
    to the kind of its item, read from one item-to-kind lookup, and every
    kind keeps the dataset's row order.
    """
    n = dataset.n_items
    if n < 3:
        raise ConfigError(f"need at least 3 items to split, got {n}")
    n_val = int(ratios[1] * n)
    n_cold = int(ratios[2] * n)
    n_warm = n - n_val - n_cold
    perm = stream_rng(seed, "split").permutation(n)
    kind = np.zeros(n, dtype=np.int8)  # 0 warm, 1 val, 2 cold
    kind[perm[n_warm : n_warm + n_val]] = 1
    kind[perm[n_warm + n_val :]] = 2
    row_kind = kind[dataset.interactions[:, 1]]
    train, val_rows, test = (dataset.interactions[row_kind == k] for k in range(3))
    return SplitDataset(
        dataset=dataset,
        warm_items=np.sort(perm[:n_warm]).tolist(),
        val_items=np.sort(perm[n_warm : n_warm + n_val]).tolist(),
        cold_items=np.sort(perm[n_warm + n_val :]).tolist(),
        train_interactions=train,
        val_interactions=val_rows,
        test_interactions=test,
    )


def generate_synthetic(cfg: RunConfig) -> tuple[Dataset, np.ndarray]:
    """Clustered interactions plus item features.

    Users and items are assigned to clusters round-robin. Each (user, item)
    pair interacts with probability ``p_in`` when clusters match and ``p_out``
    otherwise. Item features are the cluster centroid (orthogonal unit
    vectors) plus Gaussian noise. Users that end up with zero interactions are
    redrawn up to 10 times, then given one forced in-cluster interaction.
    The interactions are the hit matrix's indices in row-major order.
    The ``synthetic_*`` keys and the seed of ``cfg`` set the sizes and draws.
    """
    n_users, n_items = cfg.synthetic_users, cfg.synthetic_items
    n_clusters, feature_dim = cfg.synthetic_clusters, cfg.synthetic_feature_dim
    rng = stream_rng(cfg.seed, "synthetic")
    u_cluster = np.arange(n_users) % n_clusters
    i_cluster = np.arange(n_items) % n_clusters
    same = (u_cluster[:, None] == i_cluster[None, :]).astype(np.float64)
    probs = cfg.synthetic_p_out + (cfg.synthetic_p_in - cfg.synthetic_p_out) * same
    hits = rng.random((n_users, n_items)) < probs

    # a redraw changes only its own row, so the empty rows, in ascending
    # order, are the rows that a pass over every user would redraw
    for u in np.flatnonzero(~hits.any(axis=1)).tolist():
        for _ in range(10):
            hits[u] = rng.random(n_items) < probs[u]
            if hits[u].any():
                break
        else:
            in_cluster = np.flatnonzero(i_cluster == u_cluster[u])
            forced = int(rng.choice(in_cluster))
            hits[u, forced] = True

    interactions = np.argwhere(hits)
    centroids = np.eye(feature_dim)[:, :n_clusters].T  # orthogonal units
    noise = rng.standard_normal((n_items, feature_dim))
    features = centroids[i_cluster] + cfg.synthetic_feature_noise * noise
    dataset = Dataset(
        n_users=n_users,
        n_items=n_items,
        interactions=interactions,
    )
    return dataset, features
