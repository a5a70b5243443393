import math
import os

import numpy as np
import pytest

from fedcold.cli import artifact_sha256, main
from fedcold.config import RunConfig, load_config, parse_config
from fedcold.errors import ConfigError
from fedcold.pipeline import prepare_data

BASE = {
    "synthetic": "true",
    "synthetic_users": 30,
    "synthetic_items": 24,
    "synthetic_clusters": 3,
    "synthetic_feature_dim": 10,
    "dim": 8,
    "rounds": 2,
    "negatives_per_positive": 2,
    "steps": 4,
    "heads": 2,
    "k_list": "5,10",
    "val_k": 5,
    "leak_fraction": 0.25,
    "attack_epochs": 15,
    "mapper_epochs": 15,
    "mi_draws": 5,
    "struct_sample_n": 3,
    "seed": 3,
    "out_dir": "out",
}


def write_cfg(path, **overrides):
    entries = dict(BASE)
    entries.update(overrides)
    entries = {k: v for k, v in entries.items() if v is not None}
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return str(path)


def run(monkeypatch, tmp_path, *argv):
    monkeypatch.chdir(tmp_path)
    return main(list(argv))


# config parsing


def test_parse_config_types_and_comments():
    cfg = parse_config(
        "synthetic = true  # keep\n\n# full line comment\nrounds = 7\n"
        "noise_scale = 0.5\nk_list = 1, 2,3\nlight_mode = false\n"
    )
    assert cfg.synthetic is True and cfg.rounds == 7
    assert cfg.noise_scale == 0.5
    assert cfg.k_list == (1, 2, 3)
    assert cfg.light_mode is False


def test_parse_config_rejects_unknown_and_duplicates():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("roundz = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("rounds = 3\nrounds = 4\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("rounds\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("rounds = soon\n")


def test_paths_resolve_relative_to_config_dir(tmp_path):
    inter = tmp_path / "data.csv"
    inter.write_text("0,0\n")
    feats = tmp_path / "f.csv"
    feats.write_text("0,1.0\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("interactions_path = data.csv\nfeatures_path = f.csv\n")
    cfg = load_config(str(cfg_path))
    assert cfg.interactions_path == str(inter)
    cfg.validate()


def test_validation_requires_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError, match="exactly one data source"):
        RunConfig().validate()
    with pytest.raises(ConfigError, match="exactly one data source"):
        RunConfig(synthetic=True, interactions_path="x.csv").validate()
    with pytest.raises(ConfigError, match="does not exist"):
        RunConfig(
            interactions_path=str(tmp_path / "missing.csv"),
            features_path=str(tmp_path / "also_missing.csv"),
        ).validate()


def test_validation_encoder_path_pairing(tmp_path):
    inter = tmp_path / "i.csv"
    inter.write_text("0,0\n")
    with pytest.raises(ConfigError, match="requires features_path"):
        RunConfig(interactions_path=str(inter)).validate()
    with pytest.raises(ConfigError, match="requires texts_path"):
        RunConfig(interactions_path=str(inter), encoder="hashed_tokens").validate()


# gen-data


def test_gen_data_deterministic_and_manifest_seed(monkeypatch, tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg")
    assert run(monkeypatch, tmp_path, "gen-data", "--config", cfg) == 0
    first = artifact_sha256(str(tmp_path / "out/data/interactions.csv"))
    os.rename(tmp_path / "out", tmp_path / "prev")
    assert run(monkeypatch, tmp_path, "gen-data", "--config", cfg) == 0
    assert artifact_sha256(str(tmp_path / "out/data/interactions.csv")) == first
    manifest = (tmp_path / "out/manifest_gen-data.csv").read_text()
    assert "seed,3" in manifest


def test_gen_data_seed_changes_counts_within_binomial_bounds(monkeypatch, tmp_path):
    counts = {}
    for seed in (3, 4):
        cfg = write_cfg(tmp_path / f"s{seed}.cfg", seed=seed, out_dir=f"out{seed}")
        assert run(monkeypatch, tmp_path, "gen-data", "--config", cfg) == 0
        rows = (tmp_path / f"out{seed}/data/interactions.csv").read_text().splitlines()
        counts[seed] = len(rows)
    # 240 in-cluster pairs at 0.3 plus 480 out-of-cluster at 0.01
    mean = 240 * 0.3 + 480 * 0.01
    sigma = math.sqrt(240 * 0.3 * 0.7 + 480 * 0.01 * 0.99)
    for count in counts.values():
        assert abs(count - mean) < 5 * sigma
    assert counts[3] != counts[4]


def test_gen_data_requires_synthetic(monkeypatch, tmp_path, capsys):
    inter = tmp_path / "i.csv"
    inter.write_text("0,0\n1,1\n2,2\n")
    feats = tmp_path / "f.csv"
    feats.write_text("0,1.0\n1,0.5\n2,0.25\n")
    cfg = write_cfg(
        tmp_path / "file.cfg",
        synthetic="false",
        interactions_path=str(inter),
        features_path=str(feats),
    )
    assert run(monkeypatch, tmp_path, "gen-data", "--config", cfg) == 1
    assert "synthetic" in capsys.readouterr().err


def test_gen_data_output_trains(monkeypatch, tmp_path):
    cfg = write_cfg(tmp_path / "gen.cfg")
    assert run(monkeypatch, tmp_path, "gen-data", "--config", cfg) == 0
    data = prepare_data(load_config(cfg))
    lines = (tmp_path / "out/data/features.csv").read_text().splitlines()[1:]
    written = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
    assert np.array_equal(written, data.features.rows)  # floats round-trip exactly
    files = write_cfg(
        tmp_path / "files.cfg",
        synthetic=None,
        synthetic_users=None,
        synthetic_items=None,
        synthetic_clusters=None,
        synthetic_feature_dim=None,
        interactions_path="out/data/interactions.csv",
        features_path="out/data/features.csv",
        out_dir="trained",
    )
    assert run(monkeypatch, tmp_path, "train", "--config", files) == 0
    assert (tmp_path / "trained/item_embeddings.ckpt").exists()


# train


def test_train_single_round_single_row(monkeypatch, tmp_path):
    cfg = write_cfg(tmp_path / "r1.cfg", rounds=1)
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 0
    rows = (tmp_path / "out/rounds.csv").read_text().splitlines()
    assert len(rows) == 2  # header + one round
    assert rows[1].startswith("1,")


def test_train_light_mode_logs_half_the_diffusion_entries(monkeypatch, tmp_path):
    cfg = write_cfg(tmp_path / "light.cfg", rounds=10)
    assert run(monkeypatch, tmp_path, "train", "--config", cfg, "--light") == 0
    rows = (tmp_path / "out/rounds.csv").read_text().splitlines()[1:]
    trained = [r for r in rows if r.split(",")[2] != ""]
    assert len(rows) == 10 and len(trained) == 5
    assert [r.split(",")[0] for r in trained] == ["1", "3", "5", "7", "9"]


def test_train_rerun_reproduces_rounds_csv(monkeypatch, tmp_path):
    cfg = write_cfg(tmp_path / "det.cfg")
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 0
    first = artifact_sha256(str(tmp_path / "out/rounds.csv"))
    os.rename(tmp_path / "out", tmp_path / "prev")
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 0
    # identical bitwise once the wall-clock seconds column is masked
    assert artifact_sha256(str(tmp_path / "out/rounds.csv")) == first
    assert (tmp_path / "out/diagnostics.csv").read_bytes() == (
        tmp_path / "prev/diagnostics.csv"
    ).read_bytes()
    assert (tmp_path / "out/denoiser.ckpt").read_bytes() == (
        tmp_path / "prev/denoiser.ckpt"
    ).read_bytes()


def test_train_stops_before_writing_non_finite_checkpoints(
    monkeypatch, tmp_path, capsys
):
    # float64 rows stay finite for three rounds but overflow the float32 cast
    cfg = write_cfg(tmp_path / "lr.cfg", local_lr="1e6", rounds=3)
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("fedcold train: non-finite values in tensor")
    assert not list((tmp_path / "out").glob("*.ckpt"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_stops_on_non_finite_round(monkeypatch, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "lr.cfg", local_lr="1e150", rounds=3)
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 1
    assert "non-finite values in round 1 " in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.ckpt"))


# infer


def _trained(monkeypatch, tmp_path, **overrides):
    cfg = write_cfg(tmp_path / "run.cfg", **overrides)
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 0
    return cfg


def test_infer_deterministic_twice_identical(monkeypatch, tmp_path):
    cfg = _trained(monkeypatch, tmp_path)
    assert run(monkeypatch, tmp_path, "infer", "--config", cfg) == 0
    first = (tmp_path / "out/cold_embeddings.csv").read_bytes()
    assert run(monkeypatch, tmp_path, "infer", "--config", cfg) == 0
    assert (tmp_path / "out/cold_embeddings.csv").read_bytes() == first
    # 24 items at (0.6, 0.1, 0.3) -> 7 cold rows plus header
    lines = first.decode().splitlines()
    assert len(lines) == 8
    assert lines[0].split(",")[:2] == ["item_id", "f0"]


def test_infer_stochastic_differs_from_deterministic(monkeypatch, tmp_path):
    cfg = _trained(monkeypatch, tmp_path)
    assert run(monkeypatch, tmp_path, "infer", "--config", cfg) == 0
    det = (tmp_path / "out/cold_embeddings.csv").read_bytes()
    assert run(monkeypatch, tmp_path, "infer", "--config", cfg, "--mode", "stochastic") == 0
    sto1 = (tmp_path / "out/cold_embeddings.csv").read_bytes()
    assert sto1 != det
    assert (
        run(
            monkeypatch, tmp_path, "infer", "--config", cfg,
            "--mode", "stochastic", "--seed", "4",
        )
        == 0
    )
    assert (tmp_path / "out/cold_embeddings.csv").read_bytes() != sto1


# eval


def test_eval_k_rows_and_reproducibility(monkeypatch, tmp_path):
    cfg = _trained(monkeypatch, tmp_path, k_list="5,10,20")
    assert run(monkeypatch, tmp_path, "eval", "--config", cfg) == 0
    metrics = (tmp_path / "out/metrics.csv").read_text()
    assert len(metrics.splitlines()) == 4  # header + one row per K
    assert run(monkeypatch, tmp_path, "eval", "--config", cfg) == 0
    assert (tmp_path / "out/metrics.csv").read_text() == metrics
    export = (tmp_path / "out/embeddings_export.csv").read_text().splitlines()
    assert len(export) == 25  # header + every item
    assert sum(line.split(",")[1] == "1" for line in export[1:]) == 7


def test_eval_condition_ablations_change_output(monkeypatch, tmp_path):
    cfg = _trained(monkeypatch, tmp_path)
    outputs = {}
    for mode in ("full", "zero", "random", "none"):
        assert (
            run(monkeypatch, tmp_path, "eval", "--config", cfg, "--condition", mode)
            == 0
        )
        outputs[mode] = (tmp_path / "out/embeddings_export.csv").read_bytes()
    assert outputs["full"] != outputs["zero"]
    assert outputs["full"] != outputs["random"]
    assert outputs["full"] != outputs["none"]


# attack


def test_attack_two_rows_and_rerun_reproduces(monkeypatch, tmp_path):
    cfg = _trained(monkeypatch, tmp_path)
    assert run(monkeypatch, tmp_path, "attack", "--config", cfg) == 0
    report = (tmp_path / "out/attack_report.csv").read_text()
    lines = report.splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "diffusion"
    assert lines[2].split(",")[0] == "mapper"
    assert run(monkeypatch, tmp_path, "attack", "--config", cfg) == 0
    assert (tmp_path / "out/attack_report.csv").read_text() == report
    struct = (tmp_path / "out/structural_diff_diffusion.csv").read_text()
    assert len(struct.splitlines()) == 4  # header + sample_n rows


def test_attack_full_leak_rejected(monkeypatch, tmp_path, capsys):
    cfg = _trained(monkeypatch, tmp_path)
    assert run(monkeypatch, tmp_path, "attack", "--config", cfg) == 0
    bad = write_cfg(tmp_path / "bad.cfg", leak_fraction=1.0)
    assert run(monkeypatch, tmp_path, "attack", "--config", bad) == 1
    assert "leak_fraction" in capsys.readouterr().err


# sweep


def test_sweep_one_row_per_value(monkeypatch, tmp_path):
    cfg = write_cfg(tmp_path / "sweep.cfg", rounds=1)
    assert (
        run(
            monkeypatch, tmp_path, "sweep", "--config", cfg,
            "--param", "dim", "--values", "4,8",
        )
        == 0
    )
    rows = (tmp_path / "out/sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[:3] == ["dim", "4", "5"]
    assert rows[2].split(",")[:3] == ["dim", "8", "5"]
    assert (tmp_path / "out/dim_4/metrics.csv").exists()


def test_sweep_ldp_values(monkeypatch, tmp_path):
    cfg = write_cfg(tmp_path / "sweep.cfg", rounds=1)
    assert (
        run(
            monkeypatch, tmp_path, "sweep", "--config", cfg,
            "--param", "ldp", "--values", "0.5",
        )
        == 0
    )
    rows = (tmp_path / "out/sweep.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("ldp,0.5,")


# manifests


def test_manifest_covers_config_and_artifact_hashes(monkeypatch, tmp_path):
    cfg = _trained(monkeypatch, tmp_path)
    manifest = dict(
        line.split(",", 1)
        for line in (tmp_path / "out/manifest_train.csv").read_text().splitlines()[1:]
    )
    loaded = load_config(cfg)
    for key, value in loaded.resolved().items():
        assert manifest[key] == value
    assert manifest["command"] == "train"
    assert manifest["sha256:rounds.csv"] == artifact_sha256(
        str(tmp_path / "out/rounds.csv")
    )
    assert manifest["sha256:denoiser.ckpt"] == artifact_sha256(
        str(tmp_path / "out/denoiser.ckpt")
    )
