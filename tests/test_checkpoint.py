import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcold.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from fedcold.diffusion import init_denoiser, DenoiserParams
from fedcold.errors import DataFormatError, NumericsError
from fedcold.mlp import TwoLayerMLP
from fedcold.numerics import stream_rng


def test_round_trip_exact_float32(tmp_path):
    path = str(tmp_path / "t.ckpt")
    rng = stream_rng(0, "ckpt")
    tensors = {
        "weights": rng.standard_normal((3, 5)),
        "bias": rng.standard_normal(5),
    }
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == {"weights", "bias"}
    np.testing.assert_array_equal(
        loaded["weights"], tensors["weights"].astype(np.float32).astype(np.float64)
    )
    assert loaded["bias"].shape == (1, 5)  # vectors stored as one row


def test_save_load_save_byte_identical(tmp_path):
    a = str(tmp_path / "a.ckpt")
    b = str(tmp_path / "b.ckpt")
    rng = stream_rng(1, "ckpt")
    save_checkpoint(a, {"m": rng.standard_normal((4, 4)), "v": rng.standard_normal(4)})
    save_checkpoint(b, load_checkpoint(a))
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_hand_built_file_parses():
    # Independent byte-level construction of a 2x2 single-section file.
    name = b"m"
    floats = struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
    blob = (
        MAGIC
        + struct.pack("<I", VERSION)
        + struct.pack("<I", 1)
        + struct.pack("<I", len(name))
        + name
        + struct.pack("<II", 2, 2)
        + floats
    )
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["m"], [[1.0, 2.0], [3.0, 4.0]])
    finally:
        os.unlink(path)


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as handle:
        handle.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path):
    path = str(tmp_path / "v.ckpt")
    save_checkpoint(path, {"m": np.zeros((1, 1))})
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[4:8] = struct.pack("<I", 99)
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(DataFormatError, match="version"):
        load_checkpoint(path)


def test_truncated_rejected(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(path, {"m": np.ones((2, 3))})
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[:-5])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(path, {"m": np.ones((2, 3))})
    with open(path, "ab") as handle:
        handle.write(b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(path)


def test_denoiser_params_round_trip(tmp_path):
    path = str(tmp_path / "d.ckpt")
    params = init_denoiser(8, 2, 6, stream_rng(2, "init"))
    save_checkpoint(path, params.tensors())
    restored = DenoiserParams.from_tensors(8, 2, 6, load_checkpoint(path))
    for name, tensor in params.tensors().items():
        np.testing.assert_allclose(
            restored.tensors()[name], tensor, rtol=0, atol=1e-6
        )
    # restored into a flat buffer of its own, which the checkpoint's tensors
    # must fit
    assert all(t.base is restored.flat for t in restored.tensors().values())
    tensors = load_checkpoint(path)
    tensors["cond_w"] = tensors["cond_w"][:5]
    shape = r"'cond_w' has shape \(5, 8\), expected \(6, 8\)"
    with pytest.raises(DataFormatError, match=shape):
        DenoiserParams.from_tensors(8, 2, 6, tensors)


def test_mlp_round_trip(tmp_path):
    path = str(tmp_path / "m.ckpt")
    mlp = TwoLayerMLP.init(5, 7, 3, stream_rng(3, "init"))
    save_checkpoint(path, mlp.tensors())
    restored = TwoLayerMLP.from_tensors(load_checkpoint(path))
    assert restored.hidden_b.shape == (7,)
    np.testing.assert_allclose(restored.out_w, mlp.out_w, atol=1e-6)
    # restored into one flat buffer of its own
    flat = restored.hidden_w.base
    assert all(t.base is flat for t in restored.tensors().values())


@pytest.mark.parametrize(
    "name, tensor, shapes",
    [
        ("hidden_w", np.zeros(7), r"\(7,\), expected \(1, 7\)"),
        ("hidden_b", np.zeros((1, 6)), r"\(1, 6\), expected \(7,\)"),
        ("out_w", np.zeros((6, 3)), r"\(6, 3\), expected \(7, 3\)"),
        ("out_b", np.zeros((1, 4)), r"\(1, 4\), expected \(3,\)"),
        ("out_b", np.zeros((3, 1)), r"\(3, 1\), expected \(3,\)"),
    ],
)
def test_mlp_from_tensors_names_a_misshapen_tensor(name, tensor, shapes):
    tensors = TwoLayerMLP.init(5, 7, 3, stream_rng(6, "init")).tensors()
    tensors[name] = tensor
    with pytest.raises(DataFormatError, match=f"MLP tensor '{name}' has shape {shapes}"):
        TwoLayerMLP.from_tensors(tensors)


def test_empty_checkpoint_round_trips(tmp_path):
    path = str(tmp_path / "e.ckpt")
    save_checkpoint(path, {})
    assert load_checkpoint(path) == {}


def test_from_tensors_names_every_missing_tensor():
    denoiser = init_denoiser(8, 2, 6, stream_rng(4, "init")).tensors()
    del denoiser["time_w"], denoiser["trunk3_b"]
    with pytest.raises(DataFormatError, match="denoiser .*: time_w, trunk3_b$"):
        DenoiserParams.from_tensors(8, 2, 6, denoiser)
    mlp = TwoLayerMLP.init(5, 7, 3, stream_rng(5, "init")).tensors()
    del mlp["out_b"]
    with pytest.raises(DataFormatError, match="MLP .*: out_b$"):
        TwoLayerMLP.from_tensors(mlp)


def _section(name: str, rows: int, cols: int) -> bytes:
    encoded = name.encode("utf-8")
    values = struct.pack(f"<{rows * cols}f", *range(rows * cols))
    header = struct.pack("<I", len(encoded)) + encoded + struct.pack("<II", rows, cols)
    return header + values


def test_duplicate_sections_are_refused(tmp_path):
    # save_checkpoint cannot write two sections of one name; a hand-built
    # file that has them must not keep only the last
    path = tmp_path / "dup.ckpt"
    section = _section("a", 1, 1)
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 2) + section + section)
    with pytest.raises(DataFormatError, match="duplicate tensor 'a'"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_load_refuses_a_non_finite_tensor(tmp_path, value):
    # save_checkpoint refuses such a tensor, so its bytes are written here
    path = tmp_path / "bad.ckpt"
    blob = MAGIC + struct.pack("<II", VERSION, 2) + _section("a", 1, 2) + _section("w", 2, 2)
    path.write_bytes(blob[:-4] + struct.pack("<f", value))
    with pytest.raises(NumericsError) as refused:
        load_checkpoint(str(path))
    assert str(refused.value) == f"non-finite values in tensor 'w' of {path}"


# what load_checkpoint raises on a file it refuses
REFUSALS = (DataFormatError, NumericsError)


def _load_bytes(blob: bytes):
    """``load_checkpoint`` on ``blob``: the tensors, or the refusal."""
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        return load_checkpoint(path)
    except REFUSALS as exc:
        return exc
    finally:
        os.unlink(path)


@given(st.binary(max_size=96), st.booleans())
@settings(max_examples=150, deadline=None)
def test_load_checkpoint_on_arbitrary_bytes_returns_tensors_or_refuses(tail, prefixed):
    blob = MAGIC + struct.pack("<I", VERSION) + tail if prefixed else tail
    loaded = _load_bytes(blob)
    if not isinstance(loaded, REFUSALS):
        assert all(v.ndim == 2 and v.dtype == np.float64 for v in loaded.values())


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "\u00e9"]), st.integers(0, 2), st.integers(0, 2)
        ),
        max_size=4,
    ),
    st.integers(-1, 2),
    st.binary(max_size=4),
    st.integers(0, 12),
)
@settings(max_examples=150, deadline=None)
def test_load_checkpoint_on_section_like_bytes_returns_tensors_or_refuses(
    sections, count_shift, junk, cut
):
    blob = MAGIC + struct.pack("<II", VERSION, max(0, len(sections) + count_shift))
    blob += b"".join(_section(*s) for s in sections) + junk
    loaded = _load_bytes(blob[: len(blob) - cut])
    if not isinstance(loaded, REFUSALS):
        names = [name for name, _, _ in sections]
        assert len(set(names)) == len(names)  # duplicates are refused
        assert set(loaded) <= set(names)
        for name, rows, cols in sections:
            if name in loaded:
                assert loaded[name].shape == (rows, cols)
