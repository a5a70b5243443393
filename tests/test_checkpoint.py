import struct

import numpy as np
import pytest

from fedcold.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from fedcold.diffusion import build_schedule, init_denoiser, DenoiserParams
from fedcold.errors import ConfigError, DataFormatError
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
    import tempfile, os

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


def test_mlp_round_trip(tmp_path):
    path = str(tmp_path / "m.ckpt")
    mlp = TwoLayerMLP.init(5, 7, 3, stream_rng(3, "init"))
    save_checkpoint(path, mlp.tensors())
    restored = TwoLayerMLP.from_tensors(load_checkpoint(path))
    assert restored.hidden_b.shape == (7,)
    np.testing.assert_allclose(restored.out_w, mlp.out_w, atol=1e-6)


def test_empty_checkpoint_round_trips(tmp_path):
    path = str(tmp_path / "e.ckpt")
    save_checkpoint(path, {})
    assert load_checkpoint(path) == {}


def test_from_tensors_names_every_missing_tensor():
    denoiser = init_denoiser(8, 2, 6, stream_rng(4, "init")).tensors()
    with pytest.raises(ConfigError, match="divisible by heads 3"):
        DenoiserParams.from_tensors(8, 3, 6, denoiser)
    del denoiser["time_w"], denoiser["trunk3_b"]
    with pytest.raises(DataFormatError, match="denoiser .*: time_w, trunk3_b$"):
        DenoiserParams.from_tensors(8, 2, 6, denoiser)
    mlp = TwoLayerMLP.init(5, 7, 3, stream_rng(5, "init")).tensors()
    del mlp["out_b"]
    with pytest.raises(DataFormatError, match="MLP .*: out_b$"):
        TwoLayerMLP.from_tensors(mlp)
