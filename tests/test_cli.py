import csv
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcold import cli
from fedcold.checkpoint import load_checkpoint, save_checkpoint
from fedcold.cli import artifact_sha256, main
from fedcold.config import RunConfig, load_config, parse_config
from fedcold.errors import ConfigError
from fedcold.federation import RoundReport
from fedcold.mlp import TwoLayerMLP
from fedcold.pipeline import diffusion_side, mapper_side, prepare_data, train_mapper

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


@given(
    st.sampled_from(sorted(RunConfig().resolved())),
    st.text(max_size=24),
)
@settings(max_examples=120, deadline=None)
def test_parse_config_and_validate_return_a_config_or_refuse(key, value):
    # any known key with arbitrary text yields a RunConfig or a ConfigError
    base = "" if key == "synthetic" else "synthetic = true\n"
    try:
        cfg = parse_config(f"{base}{key} = {value}\n")
        cfg.validate()
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


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


@pytest.mark.parametrize(
    "key, value",
    [
        ("attack_lr", math.nan),
        ("split_val", math.nan),
        ("ldp_scale", math.nan),
        ("local_lr", math.inf),
        ("noise_scale", math.nan),
        ("synthetic_feature_noise", math.nan),
        ("mapper_lr", -math.inf),
    ],
)
def test_validation_rejects_non_finite_floats(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        RunConfig(synthetic=True, **{key: value}).validate()


def test_attack_rejects_nan_learning_rate(monkeypatch, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "nan.cfg", attack_lr="nan")
    assert run(monkeypatch, tmp_path, "attack", "--config", cfg) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("fedcold attack: attack_lr must be finite")


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
    assert np.array_equal(written, data.features)  # floats round-trip exactly
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


def _rename_items(path, column, rename):
    """Rewrite a CSV with the item id in ``column`` passed through ``rename``."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0][0] in ("user_id", "item_id")
    for row in rows[header:]:
        row[column] = rename(row[column])
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def _comma_dir_cfg(tmp_path):
    """A config that trains on the CSVs gen-data wrote under ``ge,n/data``."""
    return write_cfg(
        tmp_path / "files.cfg",
        synthetic=None,
        synthetic_users=None,
        synthetic_items=None,
        synthetic_clusters=None,
        synthetic_feature_dim=None,
        interactions_path="ge,n/data/interactions.csv",
        features_path="ge,n/data/features.csv",
        out_dir="trained",
    )


def _csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_ids_with_a_comma_and_a_quote_keep_every_row_in_its_columns(
    monkeypatch, tmp_path
):
    # quoted CSV input may hold any id, so every artifact quotes it back; the
    # data directory's comma, quoted in the manifest, passes the identity check
    cfg = write_cfg(tmp_path / "gen.cfg", out_dir="ge,n")
    assert run(monkeypatch, tmp_path, "gen-data", "--config", cfg) == 0
    data = tmp_path / "ge,n/data"

    def rename(item):
        return f'it,{item}"q'

    _rename_items(data / "interactions.csv", 1, rename)
    _rename_items(data / "features.csv", 0, rename)
    files = _comma_dir_cfg(tmp_path)
    for command in ("train", "infer", "eval"):
        assert run(monkeypatch, tmp_path, command, "--config", files) == 0
    out = tmp_path / "trained"
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            header, *rows = _csv_rows(out / name)
            assert {len(row) for row in rows} <= {len(header)}, name
    interacted = {row[1] for row in _csv_rows(data / "interactions.csv")}
    exported = [row[0] for row in _csv_rows(out / "embeddings_export.csv")[1:]]
    assert sorted(exported) == sorted(interacted)
    cold = [row[0] for row in _csv_rows(out / "cold_embeddings.csv")[1:]]
    assert cold and all(item.startswith("it,") and item.endswith('"q') for item in cold)


def test_non_finite_feature_of_a_cold_item_stops_train(monkeypatch, tmp_path, capsys):
    # a nan on a cold item once went through train, infer and eval: the cold
    # embedding row, the diagnostics and the metrics were written from it
    cfg = write_cfg(tmp_path / "gen.cfg", out_dir="ge,n")
    assert run(monkeypatch, tmp_path, "gen-data", "--config", cfg) == 0
    files = _comma_dir_cfg(tmp_path)
    split = prepare_data(load_config(files)).split
    cold_id = split.dataset.item_ids[split.cold_items[0]]
    path = tmp_path / "ge,n/data/features.csv"
    rows = _csv_rows(path)
    line = next(n for n, row in enumerate(rows, start=1) if row[0] == cold_id)
    rows[line - 1][2] = "nan"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    capsys.readouterr()
    assert run(monkeypatch, tmp_path, "train", "--config", files) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"fedcold train: {path}:{line}: non-finite feature value"
    ]


def _utf8_inputs(monkeypatch, tmp_path, run_dir, rename, source="texts"):
    """gen-data's CSVs rewritten as UTF-8 in ``run_dir/data`` with every user
    and item id passed through ``rename``, and an ``item_id<TAB>text`` file;
    the config beside them that trains on the texts or, with ``source =
    "features"``, on the feature rows."""
    cfg = write_cfg(tmp_path / "gen.cfg", out_dir="gen")
    if not (tmp_path / "gen/data").exists():
        assert run(monkeypatch, tmp_path, "gen-data", "--config", cfg) == 0
    (run_dir / "data").mkdir(parents=True)
    for name, columns in (("interactions.csv", (0, 1)), ("features.csv", (0,))):
        rows = _csv_rows(tmp_path / "gen/data" / name)
        header = rows[0][0] == "item_id"  # interactions.csv has none
        for row in rows[header:]:
            for c in columns:
                row[c] = rename(row[c])
        with open(run_dir / "data" / name, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(rows)
    (run_dir / "data/texts.tsv").write_text(
        "".join(f"{row[0]}\tcrème brûlée n°{n}\n" for n, row in enumerate(rows[1:])),
        encoding="utf-8",
    )
    if source == "texts":
        inputs = dict(encoder="hashed_tokens", texts_path="data/texts.tsv", hash_dim=12)
    else:
        inputs = dict(features_path="data/features.csv")
    return write_cfg(
        run_dir / "files.cfg",
        synthetic=None,
        synthetic_users=None,
        synthetic_items=None,
        synthetic_clusters=None,
        synthetic_feature_dim=None,
        interactions_path="data/interactions.csv",
        out_dir="out",
        **inputs,
    )


def _manifest_hashes(out):
    hashes = {}
    for name in ("manifest_train.csv", "manifest_eval.csv"):
        with open(out / name, encoding="utf-8", newline="") as handle:
            hashes.update(row for row in csv.reader(handle) if row[0].startswith("sha256:"))
    return hashes


def test_non_ascii_ids_give_the_same_artifacts_under_an_ascii_locale(
    monkeypatch, tmp_path
):
    # every input is read as UTF-8 whatever the locale; under the C locale
    # without coercion or UTF-8 mode Python's own default is ASCII
    src = os.path.dirname(os.path.dirname(cli.__file__))
    default_env = dict(os.environ)
    default_env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    ascii_env = dict(default_env, LC_ALL="C", PYTHONCOERCECLOCALE="0")
    ascii_python = [sys.executable, "-X", "utf8=0"]
    probe = subprocess.run(
        ascii_python + ["-c", "import locale; print(locale.getpreferredencoding(False))"],
        env=ascii_env, capture_output=True, text=True, check=True,
    )
    assert "utf" not in probe.stdout.lower()

    def rename(original):
        return f"é{original}ü"

    runs = {}
    for side, python, env in (
        ("default", [sys.executable], default_env),
        ("ascii", ascii_python, ascii_env),
    ):
        cfg = _utf8_inputs(monkeypatch, tmp_path, tmp_path / side, rename)
        for command in ("train", "eval"):
            done = subprocess.run(
                python + ["-m", "fedcold.cli", command, "--config", cfg],
                env=env, cwd=tmp_path / side, capture_output=True,
            )
            assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
        idmaps = sorted((tmp_path / side / "data").glob("*_idmap.csv"))
        runs[side] = (
            _manifest_hashes(tmp_path / side / "out"),
            [(p.name, p.read_bytes()) for p in idmaps],
        )
    assert runs["ascii"] == runs["default"]
    hashes, idmaps = runs["default"]
    assert len(hashes) == 12 and len(idmaps) == 2  # 9 train and 3 eval artifacts
    assert "é" in (tmp_path / "default/out/embeddings_export.csv").read_text("utf-8")


@pytest.mark.parametrize(
    "broken, path",
    [
        ("interactions", "data/interactions.csv"),
        ("features", "data/features.csv"),
        ("texts", "data/texts.tsv"),
        ("config", "files.cfg"),
    ],
)
def test_an_input_that_is_not_utf8_is_refused_in_one_line(
    monkeypatch, tmp_path, capsys, broken, path
):
    source = "features" if broken == "features" else "texts"
    cfg = _utf8_inputs(monkeypatch, tmp_path, tmp_path / "run", str, source)
    path = tmp_path / "run" / path
    with open(path, "ab") as handle:
        handle.write(b"# caf\xff\n" if broken == "config" else b"x\xff,1\ty\n")
    capsys.readouterr()
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"fedcold train: {path}: not UTF-8 text")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_write_csv_array_field_is_the_per_element_fields(tmp_path, dtype):
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, -2.5]
    with np.errstate(over="ignore"):
        row = np.array(values).astype(dtype)
    header = ["id", "cold"] + [f"f{j}" for j in range(row.size)]
    whole, split = tmp_path / "whole.csv", tmp_path / "split.csv"
    cli.write_csv(str(whole), header, [["it,1", 1, row], ["it2", 0, row[::-1]]])
    cli.write_csv(
        str(split), header, [["it,1", 1] + list(row), ["it2", 0] + list(row[::-1])]
    )
    assert whole.read_bytes() == split.read_bytes()
    if dtype is np.float64:
        assert whole.read_bytes().splitlines()[1] == (
            b'"it,1",1,nan,inf,-inf,-0.0,0.0,5e-324,1e+300,0.1,-2.5'
        )


def test_write_csv_quotes_fields_that_csv_reader_would_split(tmp_path):
    header = ["id", "note", "n", "x", "empty"]
    rows = [
        ["it,3", 'say "hi"', 1, 0.1, None],
        ["two\nlines", "cr\rhere", 2, np.float64(2.5), ""],
    ]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, rows)
    text = path.read_bytes().decode("utf-8")
    assert text == (
        'id,note,n,x,empty\n"it,3","say ""hi""",1,0.1,\n"two\nlines","cr\rhere",2,2.5,\n'
    )
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        header,
        ["it,3", 'say "hi"', "1", "0.1", ""],
        ["two\nlines", "cr\rhere", "2", "2.5", ""],
    ]


def test_identity_check_reads_a_manifest_written_before_values_were_quoted(
    monkeypatch, tmp_path, capsys
):
    cfg = write_cfg(tmp_path / "gen.cfg", out_dir="ge,n")
    assert run(monkeypatch, tmp_path, "gen-data", "--config", cfg) == 0
    files = _comma_dir_cfg(tmp_path)
    assert run(monkeypatch, tmp_path, "train", "--config", files) == 0
    # the writer before quoting joined every field with bare commas
    manifest = tmp_path / "trained/manifest_train.csv"
    rows = _csv_rows(manifest)
    assert ["k_list", "5,10"] in rows
    manifest.write_text("".join(",".join(row) + "\n" for row in rows))
    assert "k_list,5,10\n" in manifest.read_text()
    assert run(monkeypatch, tmp_path, "eval", "--config", files) == 0
    capsys.readouterr()
    assert run(monkeypatch, tmp_path, "eval", "--config", files, "--seed", "5") == 1
    err = capsys.readouterr().err
    assert "seed '5' (trained with '3')" in err
    assert "interactions_path" not in err


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


def test_train_notes_a_val_k_that_saturates_validation(monkeypatch, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "val.cfg", rounds=1, synthetic_items=60)
    n_val = len(prepare_data(load_config(cfg)).split.val_items)
    assert n_val >= 2
    for val_k in (n_val + 3, n_val):
        cfg = write_cfg(tmp_path / "val.cfg", rounds=1, synthetic_items=60, val_k=val_k)
        assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"fedcold train: notice: val_k {val_k} >= {n_val} validation items, "
            "so validation recall saturates and the best round is the last"
        ]
    cfg = write_cfg(tmp_path / "val.cfg", rounds=1, synthetic_items=60, val_k=n_val - 1)
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 0
    assert capsys.readouterr().err == ""


def test_rounds_csv_phase_timings_are_masked_and_counters_hashed(
    monkeypatch, tmp_path
):
    cfg = write_cfg(tmp_path / "r2.cfg", client_sample_ratio=0.5)
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 0
    path = tmp_path / "out/rounds.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "round,mean_client_loss,diffusion_loss,seconds,generator_seconds,"
        "draw_seconds,kernel_seconds,noise_seconds,aggregate_seconds,"
        "chain_seconds,val_seconds,upload_rows,distinct_items,payload_bytes"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2
    for row in rows:
        seconds = [float(v) for v in row[3:11]]
        assert all(s >= 0 for s in seconds)
        # generator epochs and the client phase fall inside the round's seconds;
        # the chains and validation scoring follow it
        assert sum(seconds[1:6]) <= seconds[0]
        assert seconds[6] > 0 and seconds[7] > 0
        upload_rows, distinct, payload = (int(v) for v in row[11:])
        assert 0 < distinct <= upload_rows
        assert payload == upload_rows * 8 * 8  # float64 rows of dim 8
    first = artifact_sha256(str(path))

    def rewrite(column, value):
        edited = [line.split(",") for line in lines]
        edited[1][column] = value
        path.write_text("\n".join(",".join(row) for row in edited) + "\n")
        return artifact_sha256(str(path))

    for column in range(3, 11):  # wall-clock columns are blanked
        assert rewrite(column, "12.5") == first
    for column in range(11, 14):  # counters stay in the hash
        assert rewrite(column, "7") != first


def test_train_csv_headers_cover_every_round_report_field_once(
    monkeypatch, tmp_path
):
    # a RoundReport field added without a column fails here
    cfg = write_cfg(tmp_path / "run.cfg", rounds=1)
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 0
    headers = [
        (tmp_path / "out" / name).read_text().splitlines()[0].split(",")
        for name in ("rounds.csv", "diagnostics.csv", "validation.csv")
    ]
    fields = {f.name for f in dataclasses.fields(RoundReport)}
    assert "round" in fields and all(header[0] == "round" for header in headers)
    assert sorted(c for header in headers for c in header[1:]) == sorted(
        fields - {"round"}
    )


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


def test_train_progress_prints_one_line_per_round_and_changes_no_artifact(
    monkeypatch, tmp_path, capsys
):
    cfg = write_cfg(tmp_path / "progress.cfg", rounds=3, client_sample_ratio=0.5)
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 0
    quiet = capsys.readouterr()
    os.rename(tmp_path / "out", tmp_path / "quiet")
    assert run(monkeypatch, tmp_path, "train", "--config", cfg, "--progress") == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    lines = loud.err[len(quiet.err) :].splitlines()
    assert loud.err.startswith(quiet.err) and len(lines) == 3
    for r, line in enumerate(lines, start=1):
        assert re.fullmatch(
            rf"fedcold train: round {r}/3 loss \d+\.\d{{4}} "
            r"val_recall (\d\.\d{4}|n/a) seconds \d+\.\d{3}",
            line,
        ), line
    names = sorted(os.listdir(tmp_path / "quiet"))
    assert names == sorted(os.listdir(tmp_path / "out"))
    for name in names:
        quiet_path, loud_path = tmp_path / "quiet" / name, tmp_path / "out" / name
        if name == "rounds.csv":  # its wall-clock columns differ from run to run
            assert artifact_sha256(str(loud_path)) == artifact_sha256(str(quiet_path))
        else:
            assert loud_path.read_bytes() == quiet_path.read_bytes(), name


def test_train_stops_before_writing_non_finite_checkpoints(
    monkeypatch, tmp_path, capsys
):
    # float64 rows stay finite for three rounds but overflow the float32 cast
    cfg = write_cfg(tmp_path / "lr.cfg", local_lr="1e6", rounds=3)
    assert run(monkeypatch, tmp_path, "train", "--config", cfg) == 1
    err = capsys.readouterr().err.strip().splitlines()
    err = [line for line in err if not line.startswith("fedcold train: notice:")]
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
    # another seed is another run: it trains in its own out_dir
    out4 = str(tmp_path / "out4")
    assert run(monkeypatch, tmp_path, "train", "--config", cfg, "--seed", "4", "--out", out4) == 0
    assert (
        run(
            monkeypatch, tmp_path, "infer", "--config", cfg,
            "--mode", "stochastic", "--seed", "4", "--out", out4,
        )
        == 0
    )
    assert (tmp_path / "out4/cold_embeddings.csv").read_bytes() != sto1


def test_infer_names_a_tensor_missing_from_the_checkpoint(
    monkeypatch, tmp_path, capsys
):
    cfg = _trained(monkeypatch, tmp_path)
    path = str(tmp_path / "out/denoiser_best.ckpt")
    tensors = load_checkpoint(path)
    del tensors["time_w"]
    save_checkpoint(path, tensors)
    capsys.readouterr()
    assert run(monkeypatch, tmp_path, "infer", "--config", cfg) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("fedcold infer: ")
    assert err[0].endswith("time_w")


@pytest.mark.parametrize("command", ["eval", "attack"])
def test_stages_refuse_a_misshapen_or_misnamed_table(
    monkeypatch, tmp_path, capsys, command
):
    # tables of a dim-16 run, or a denoiser in the item table's place, are
    # refused by name before any of them is used
    cfg = _trained(monkeypatch, tmp_path)
    out = tmp_path / "out"
    users = str(out / "user_embeddings_best.ckpt")
    items = str(out / "item_embeddings_best.ckpt")
    n_users = load_checkpoint(users)["user_embeddings"].shape[0]
    cases = [
        (
            users,
            {"user_embeddings": np.ones((n_users, 16))},
            f"user_embeddings_best tensor 'user_embeddings' has shape ({n_users}, 16), "
            f"expected ({n_users}, 8)",
        ),
        (
            items,
            {"item_embeddings": np.ones((24, 16))},
            "item_embeddings_best tensor 'item_embeddings' has shape (24, 16), "
            "expected (24, 8)",
        ),
        (
            items,
            load_checkpoint(str(out / "denoiser_best.ckpt")),
            "item_embeddings_best checkpoint lacks tensor(s): item_embeddings",
        ),
    ]
    for path, tensors, message in cases:
        trained = load_checkpoint(path)
        save_checkpoint(path, tensors)
        capsys.readouterr()
        assert run(monkeypatch, tmp_path, command, "--config", cfg) == 1
        assert capsys.readouterr().err.splitlines() == [f"fedcold {command}: {message}"]
        save_checkpoint(path, trained)
    assert run(monkeypatch, tmp_path, command, "--config", cfg) == 0


# run identity


@pytest.mark.parametrize("command", ["infer", "eval", "attack"])
@pytest.mark.parametrize(
    "change, key",
    [
        (("--seed", "5"), "seed"),
        ({"heads": 4}, "heads"),
        ({"dim": 16}, "dim"),
        ({"synthetic_users": 31}, "synthetic_users"),
        ({"split_val": 0.15, "split_cold": 0.25}, "split_val"),
        ({"noise_scale": 0.5}, "noise_scale"),
    ],
)
def test_stages_refuse_a_run_trained_under_other_identity_keys(
    monkeypatch, tmp_path, capsys, command, change, key
):
    _trained(monkeypatch, tmp_path)
    if isinstance(change, dict):
        cfg, argv = write_cfg(tmp_path / "other.cfg", **change), ()
    else:
        cfg, argv = str(tmp_path / "run.cfg"), change
    capsys.readouterr()
    assert run(monkeypatch, tmp_path, command, "--config", cfg, *argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"fedcold {command}: config does not match the run in out:")
    for name in (key, "split_cold") if key == "split_val" else (key,):
        assert f" {name} " in err[0]


def test_identity_check_names_every_differing_key(monkeypatch, tmp_path, capsys):
    _trained(monkeypatch, tmp_path)
    cfg = write_cfg(tmp_path / "other.cfg", heads=4, steps=6)
    capsys.readouterr()
    assert run(monkeypatch, tmp_path, "eval", "--config", cfg, "--seed", "5") == 1
    err = capsys.readouterr().err
    assert "seed '5' (trained with '3')" in err
    assert "heads '4' (trained with '2')" in err
    assert "steps '6' (trained with '4')" in err


def test_condition_mode_and_ldp_are_not_identity_keys(monkeypatch, tmp_path):
    cfg = _trained(monkeypatch, tmp_path)
    for argv in (("--condition", "zero"), ("--mode", "stochastic"), ("--ldp", "1")):
        assert run(monkeypatch, tmp_path, "eval", "--config", cfg, *argv) == 0


@pytest.mark.parametrize("command", ["infer", "eval", "attack"])
def test_missing_train_manifest_fails_like_a_missing_checkpoint(
    monkeypatch, tmp_path, capsys, command
):
    cfg = _trained(monkeypatch, tmp_path)
    os.remove(tmp_path / "out/manifest_train.csv")
    capsys.readouterr()
    assert run(monkeypatch, tmp_path, command, "--config", cfg) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "missing train manifest" in err[0]
    assert "(run `fedcold train` first)" in err[0]


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


def test_attack_fits_the_mapper_over_an_existing_one(monkeypatch, tmp_path):
    # a seed-2 run in a seed-1 out_dir must not score the seed-1 mapper
    cfg = write_cfg(tmp_path / "run.cfg")

    def train_and_attack(out, seed):
        for stage in ("train", "attack"):
            argv = (stage, "--config", cfg, "--seed", str(seed), "--out", out)
            assert run(monkeypatch, tmp_path, *argv) == 0
        return artifact_sha256(str(tmp_path / out / "mapper.ckpt"))

    seed1 = train_and_attack("reused", 1)
    reused = train_and_attack("reused", 2)
    fresh = train_and_attack("fresh", 2)
    assert seed1 != fresh
    assert reused == fresh


ATTACK_FILES = (
    "attack_report.csv",
    "attack_entropy.csv",
    "structural_diff_diffusion.csv",
    "structural_diff_mapper.csv",
    "mapper.ckpt",
)


def test_attack_threaded_equals_a_sequential_oracle(monkeypatch, tmp_path):
    # the mapper fit on its worker thread and the chains on the main thread
    # share no array and no random stream, so overlapping them changes no bit
    cfg_path = _trained(monkeypatch, tmp_path)
    recorded = []
    write_attack_report = cli._write_attack_report

    def recording_write(out_dir, sides):
        recorded.append(sides)
        return write_attack_report(out_dir, sides)

    monkeypatch.setattr(cli, "_write_attack_report", recording_write)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads as often as possible
    try:
        assert run(monkeypatch, tmp_path, "attack", "--config", cfg_path) == 0
    finally:
        sys.setswitchinterval(interval)
    (threaded,) = recorded

    # one thread, in order: mapper fit, save and reload, the generator's side
    # (its chains, then the attack), the mapper's side, the report
    cfg = load_config(cfg_path)
    oracle_dir = tmp_path / "oracle"
    oracle_dir.mkdir()
    data = prepare_data(cfg)
    item_table = load_checkpoint(str(tmp_path / "out/item_embeddings_best.ckpt"))
    mapper = train_mapper(cfg, data, item_table["item_embeddings"])
    save_checkpoint(str(oracle_dir / "mapper.ckpt"), mapper.tensors())
    mapper = TwoLayerMLP.from_tensors(load_checkpoint(str(oracle_dir / "mapper.ckpt")))
    generator = cli._open_run(cfg)[1]
    oracle = [diffusion_side(cfg, data, generator), mapper_side(cfg, data, mapper)]
    write_attack_report(str(oracle_dir), oracle)

    for name in ATTACK_FILES:
        assert (tmp_path / "out" / name).read_bytes() == (oracle_dir / name).read_bytes()
    assert [s.report.method for s in threaded] == ["diffusion", "mapper"]
    for ours, theirs in zip(threaded, oracle, strict=True):
        assert ours.report == theirs.report
        assert (ours.mi, ours.entropy) == (theirs.mi, theirs.entropy)
        assert ours.fano == theirs.fano
        np.testing.assert_array_equal(ours.structural, theirs.structural)


def test_attack_errors_on_either_thread_exit_one_after_the_join(
    monkeypatch, tmp_path, capsys
):
    cfg = _trained(monkeypatch, tmp_path)
    capsys.readouterr()
    threads = threading.active_count()

    def failing_fit(*args):
        raise ConfigError("mapper fit failed")

    monkeypatch.setattr(cli, "train_mapper", failing_fit)
    assert run(monkeypatch, tmp_path, "attack", "--config", cfg) == 1
    assert capsys.readouterr().err.splitlines() == ["fedcold attack: mapper fit failed"]
    assert not (tmp_path / "out/mapper.ckpt").exists()
    assert threading.active_count() == threads

    fitted = threading.Event()

    def slow_fit(*args):
        time.sleep(0.2)  # still fitting when the chains fail
        mapper = train_mapper(*args)
        fitted.set()
        return mapper

    def failing_chains(*args):
        raise ConfigError("chains failed")

    monkeypatch.setattr(cli, "train_mapper", slow_fit)
    monkeypatch.setattr(cli, "diffusion_side", failing_chains)
    assert run(monkeypatch, tmp_path, "attack", "--config", cfg) == 1
    assert fitted.is_set()  # the worker was joined before attack returned
    assert capsys.readouterr().err.splitlines() == ["fedcold attack: chains failed"]
    assert not (tmp_path / "out/mapper.ckpt").exists()
    assert threading.active_count() == threads

    # the generator's structural sample fails before the join: 5 items attacked
    monkeypatch.setattr(cli, "train_mapper", train_mapper)
    monkeypatch.setattr(cli, "diffusion_side", diffusion_side)
    big = write_cfg(tmp_path / "big.cfg", struct_sample_n=10)
    assert run(monkeypatch, tmp_path, "attack", "--config", big) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["fedcold attack: need at least 10 items, got 5"]
    assert not (tmp_path / "out/mapper.ckpt").exists()
    assert threading.active_count() == threads


def test_attack_on_one_cluster_reports_no_fano_bound(monkeypatch, tmp_path):
    # a Fano bound needs a label of at least 2 categories
    cfg = _trained(monkeypatch, tmp_path, synthetic_clusters=1)
    assert run(monkeypatch, tmp_path, "attack", "--config", cfg) == 0
    with open(tmp_path / "out/attack_report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["method"] for row in rows] == ["diffusion", "mapper"]
    assert [row["fano_lower_bound"] for row in rows] == ["", ""]


def test_attack_full_leak_rejected(monkeypatch, tmp_path, capsys):
    cfg = _trained(monkeypatch, tmp_path)
    assert run(monkeypatch, tmp_path, "attack", "--config", cfg) == 0
    bad = write_cfg(tmp_path / "bad.cfg", leak_fraction=1.0)
    assert run(monkeypatch, tmp_path, "attack", "--config", bad) == 1
    assert "leak_fraction" in capsys.readouterr().err


# sweep


def assert_sweep_rows_equal_eval_metrics(out, param):
    """Each sweep row's numbers are its sub-run's metrics.csv row at that k."""
    for row in (out / "sweep.csv").read_text().splitlines()[1:]:
        _, value, k, *numbers = row.split(",")
        metrics = (out / f"{param}_{value}/metrics.csv").read_text().splitlines()[1:]
        by_k = {line.split(",")[0]: line.split(",")[1:] for line in metrics}
        assert numbers == by_k[k]  # recall, precision, ndcg, n_users


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
    assert_sweep_rows_equal_eval_metrics(tmp_path / "out", "dim")


def test_sweep_ldp_values(monkeypatch, tmp_path):
    cfg = write_cfg(tmp_path / "sweep.cfg", rounds=1)
    assert (
        run(
            monkeypatch, tmp_path, "sweep", "--config", cfg,
            "--param", "ldp", "--values", "0,0.5",
        )
        == 0
    )
    rows = (tmp_path / "out/sweep.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[2].startswith("ldp,0.5,")
    assert_sweep_rows_equal_eval_metrics(tmp_path / "out", "ldp")


def test_sweep_rejects_malformed_values_before_any_run(
    monkeypatch, tmp_path, capsys
):
    cfg = write_cfg(tmp_path / "sweep.cfg", rounds=1)
    for param, values, bad in (
        ("dim", "8,abc", "'abc'"),
        ("dim", "abc", "'abc'"),
        ("ldp", "x", "'x'"),
    ):
        argv = ("sweep", "--config", cfg, "--param", param, "--values", values)
        assert run(monkeypatch, tmp_path, *argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0] == f"fedcold sweep: bad sweep value for {param}: {bad}"
    # a width the denoiser cannot take is a config refusal, made before dim 8 trains
    argv = ("sweep", "--config", cfg, "--param", "dim", "--values", "8,7")
    assert run(monkeypatch, tmp_path, *argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["fedcold sweep: embedding width must be even and >= 2, got 7"]
    assert not (tmp_path / "out/dim_8").exists()


def test_sweep_rejects_duplicate_values_before_any_run(
    monkeypatch, tmp_path, capsys
):
    cfg = write_cfg(tmp_path / "sweep.cfg", rounds=1)
    for param, values, message in (
        ("ldp", "0.5,.5,0.5", "'.5' is '0.5' again"),
        ("dim", "8,4,08", "'08' is '8' again"),
    ):
        argv = ("sweep", "--config", cfg, "--param", param, "--values", values)
        assert run(monkeypatch, tmp_path, *argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"fedcold sweep: duplicate sweep value for {param}: {message}"]
    assert not (tmp_path / "out").exists()


# manifests


def test_manifest_covers_config_and_artifact_hashes(monkeypatch, tmp_path):
    cfg = _trained(monkeypatch, tmp_path)
    with open(tmp_path / "out/manifest_train.csv", newline="") as handle:
        manifest = dict(list(csv.reader(handle))[1:])
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
