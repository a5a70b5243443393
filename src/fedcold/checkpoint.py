"""Binary tensor checkpoints.

Layout: magic ``MDFF``, format version (u32 LE), section count (u32 LE), then
per section a name (u32 LE length + UTF-8 bytes), row and column counts
(u32 LE each), and the row-major float32 LE payload.  Sections are written in
sorted name order so identical tensor dicts serialize to identical bytes.
Vectors are stored as a single row; loaders that expect vectors ravel them.
``load_flat`` loads a model's tensors into one flat buffer, and every file
the package writes goes through ``write_atomic``.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import DataFormatError
from .numerics import assert_finite, flat_tensors

MAGIC = b"MDFF"
VERSION = 1
_U32 = struct.Struct("<I")


def write_atomic(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temporary file in the same
    directory, renamed over ``path``: a reader sees the old bytes or the new,
    and a write that fails leaves the old bytes and no temporary file. Each
    write has its own temporary name, so concurrent writers of one path do
    not write into each other's file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors to path atomically (``write_atomic``).

    Raises NumericsError, writing nothing, if a tensor is not finite after the
    float32 cast (values beyond float32 range become infinite there).
    """
    chunks = [MAGIC, _U32.pack(VERSION), _U32.pack(len(tensors))]
    for name in sorted(tensors):
        with np.errstate(over="ignore"):  # overflow is reported just below
            arr = np.asarray(tensors[name], dtype=np.float32)
        assert_finite(f"tensor {name!r} of {path}", arr)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DataFormatError(
                f"tensor {name!r} has {arr.ndim} dimensions, expected 1 or 2"
            )
        encoded = name.encode("utf-8")
        chunks.append(_U32.pack(len(encoded)))
        chunks.append(encoded)
        chunks.append(_U32.pack(arr.shape[0]))
        chunks.append(_U32.pack(arr.shape[1]))
        chunks.append(np.ascontiguousarray(arr).astype("<f4").tobytes())
    write_atomic(path, b"".join(chunks))


def load_flat(
    shapes: dict[str, tuple[int, ...]], tensors: dict[str, np.ndarray], model: str
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``model``'s checkpoint tensors copied into a new flat buffer laid out
    by ``shapes`` (``flat_tensors``): the buffer and its views.

    A vector may come as the one row that checkpoints store it as.
    DataFormatError names every tensor that is missing, or else the first
    whose shape differs from ``shapes``.
    """
    missing = [name for name in shapes if name not in tensors]
    if missing:
        raise DataFormatError(
            f"{model} checkpoint lacks tensor(s): {', '.join(missing)}"
        )
    flat, views = flat_tensors(shapes)
    for name, view in views.items():
        arr = np.asarray(tensors[name], dtype=np.float64)
        if view.ndim == 1 and arr.shape == (1, view.size):
            arr = arr[0]
        if arr.shape != view.shape:
            raise DataFormatError(
                f"{model} tensor {name!r} has shape {arr.shape}, expected {view.shape}"
            )
        view[...] = arr
    return flat, views


class _Reader:
    def __init__(self, data: bytes, path: str) -> None:
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise DataFormatError(f"{self.path}: truncated checkpoint")
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint back as a dict of float64 matrices.

    Raises NumericsError naming the file and the tensor if a tensor holds a
    NaN or an infinity, as ``save_checkpoint`` does.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    reader = _Reader(data, path)
    if reader.take(4) != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    version = reader.u32()
    if version != VERSION:
        raise DataFormatError(
            f"{path}: unsupported checkpoint version {version}, expected {VERSION}"
        )
    count = reader.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = reader.u32()
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: malformed section name") from exc
        if name in tensors:
            raise DataFormatError(f"{path}: duplicate tensor {name!r}")
        rows = reader.u32()
        cols = reader.u32()
        raw = reader.take(rows * cols * 4)
        arr = np.frombuffer(raw, dtype="<f4").reshape(rows, cols)
        tensors[name] = arr.astype(np.float64)
        assert_finite(f"tensor {name!r} of {path}", tensors[name])
    if reader.offset != len(data):
        raise DataFormatError(f"{path}: trailing bytes after last section")
    return tensors
