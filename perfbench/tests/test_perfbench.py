"""Tests of the benchmark's own code: spans, names, limits and checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402


def _declared() -> dict:
    return spec.load_declared(ROOT)


# -- spans ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    parents = np.array([-1, 0, 1, 0])
    own = tracer.self_times(starts, ends, parents)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])
    assert own.sum() == pytest.approx(ends[0] - starts[0])
    assert tracer.descendants(starts, ends, 0) == slice(1, 4)
    assert tracer.descendants(starts, ends, 1) == slice(2, 3)
    assert tracer.descendants(starts, ends, 2) == slice(3, 3)


def test_tracer_records_parents_of_nested_calls():
    t = tracer.Tracer()

    def inner():
        return 1

    traced_inner = t.wrap(inner, "m.inner")

    def outer():
        return traced_inner() + traced_inner()

    assert t.wrap(outer, "m.outer")() == 2
    assert [t.names[c] for c in t.name_ids] == ["m.outer", "m.inner", "m.inner"]
    assert list(t.parents) == [-1, 0, 0]
    own = tracer.self_times(*(np.array(a) for a in (t.starts, t.ends, t.parents)))
    assert np.all(own >= 0)


def test_install_patches_every_namespace_and_uninstall_restores():
    import fedcold.evaluation
    import fedcold.federation
    import fedcold.numerics

    original = fedcold.numerics.sigmoid
    score_items = fedcold.federation.score_items
    t = tracer.Tracer()
    t.install({"numerics": fedcold.numerics, "federation": fedcold.federation})
    try:
        # federation looks sigmoid up in its own namespace, evaluation looks
        # score_items up in its own: both lookups must hit the wrappers
        assert fedcold.federation.sigmoid is not original
        assert fedcold.evaluation.score_items is not score_items
        fedcold.evaluation.score_items(np.ones(2), np.ones((3, 2)))
    finally:
        t.uninstall()
    assert fedcold.federation.sigmoid is original
    assert fedcold.numerics.sigmoid is original
    assert fedcold.evaluation.score_items is score_items
    named = [t.names[c] for c in t.name_ids]
    assert named == ["federation.score_items", "numerics.sigmoid"]
    assert list(t.parents) == [-1, 0]


def test_layer_metrics_produce_every_declared_layer_metric():
    empty = {k: np.zeros(0, dtype) for k, dtype in
             (("name_ids", np.int32), ("parents", np.int32), ("starts", float), ("ends", float))}
    produced = set(tracer.layer_metrics(empty, {"names": [], "counters": {}}))
    produced |= {"trace.total_s", "trace.overhead_s"}
    assert produced == {m.name for m in spec.LAYER_METRICS}


def test_train_share_counts_only_spans_inside_the_train_stage():
    names = ["stage.train", "federation.run_round", "stage.eval", "evaluation.evaluate_cold"]
    arrays = {
        "name_ids": np.array([0, 1, 2, 3], np.int32),
        "parents": np.array([-1, 0, -1, 2], np.int32),
        "starts": np.array([0.0, 1.0, 10.0, 11.0]),
        "ends": np.array([10.0, 9.0, 20.0, 19.0]),
    }
    out = tracer.layer_metrics(arrays, {"names": names, "counters": {}})
    assert out["federation.train_share"] == pytest.approx(0.8)
    assert out["evaluation.train_share"] == 0.0
    assert out["evaluation.self_s"] == pytest.approx(8.0)


# -- names and limits -------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["setup_s", "federation.us_per_example", "cold-4x-sparse", "9lives", "a" * 64]
)
def test_name_grammar_accepts(name):
    assert spec.NAME_RE.fullmatch(name)


@pytest.mark.parametrize("name", ["", "bad name", ".lead", "-lead", "a" * 65, "x/y", "é"])
def test_name_grammar_rejects(name):
    assert not spec.NAME_RE.fullmatch(name)
    doc = _declared()
    doc["per_layer"][0]["name"] = name
    assert spec.validate_benchmark(doc)


def test_declared_benchmark_is_valid_and_matches_the_tables():
    assert spec.check_declared(_declared()) == []


def test_every_declared_name_follows_the_grammar():
    doc = _declared()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in doc[section]:
            assert spec.NAME_RE.fullmatch(entry["name"]), entry["name"]


def _grow(doc: dict, section: str, count: int) -> dict:
    doc = copy.deepcopy(doc)
    template = doc[section][-1]
    while len(doc[section]) < count:
        doc[section].append(dict(template, name=f"extra{len(doc[section])}"))
    return doc


@pytest.mark.parametrize("section,limit", [("workloads", 8), ("end_to_end", 16), ("per_layer", 128)])
def test_section_limits(section, limit):
    doc = _declared()
    assert spec.validate_benchmark(_grow(doc, section, limit)) == []
    assert spec.validate_benchmark(_grow(doc, section, limit + 1))


def test_bounds_and_setup_metric_are_enforced():
    doc = _declared()
    doc["end_to_end"][0]["bound"] = 0.3
    assert spec.validate_benchmark(doc)
    doc = _declared()
    doc["end_to_end"] = [e for e in doc["end_to_end"] if e["name"] != "setup_s"]
    assert spec.validate_benchmark(doc)


# -- output checks ----------------------------------------------------------


def _manifest(directory, hashes: dict[str, str]) -> None:
    os.makedirs(directory, exist_ok=True)
    rows = ["key,value", "command,train", "out_dir," + str(directory)]
    rows += [f"sha256:{name},{digest}" for name, digest in hashes.items()]
    with open(os.path.join(directory, "manifest_train.csv"), "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")


def test_determinism_check_rejects_a_changed_artifact(tmp_path):
    artifacts = {"rounds.csv": "a" * 64, "denoiser.ckpt": "b" * 64}
    _manifest(tmp_path / "one", artifacts)
    _manifest(tmp_path / "two", artifacts)  # out_dir differs, hashes do not
    _manifest(tmp_path / "three", dict(artifacts, **{"denoiser.ckpt": "c" * 64}))
    one = checks.manifest_hashes(str(tmp_path / "one"))
    assert one == {f"manifest_train.csv:{k}": v for k, v in artifacts.items()}
    assert checks.determinism_problems(one, checks.manifest_hashes(str(tmp_path / "two"))) == []
    problems = checks.determinism_problems(one, checks.manifest_hashes(str(tmp_path / "three")))
    assert len(problems) == 1 and "denoiser.ckpt" in problems[0]
    assert checks.determinism_problems(one, {})


def test_only_times_are_scaled_to_the_reference_speed():
    import run

    slow = [2 * run.CALIBRATION_REF_S] * 3  # the host ran at half the reference speed
    medians = {"train_s": 4.0, "setup_s": 0.5, "peak_rss_mb": 100.0, "cold_auc": 0.8}
    scaled = run.at_reference_speed(medians, [run.CALIBRATION_REF_S, *slow])
    assert scaled == {"train_s": 2.0, "setup_s": 0.25, "peak_rss_mb": 100.0, "cold_auc": 0.8}
    assert run.calibration_loop() > 0


def test_metrics_csv_check(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("k,recall,precision,ndcg,n_users\n10,0.5,0.1,0.3,7\n")
    assert checks.metrics_csv_problems(str(path)) == []
    for bad in ("nan", "1.5", "-0.1", "inf"):
        path.write_text(f"k,recall,precision,ndcg,n_users\n10,{bad},0.1,0.3,7\n")
        assert checks.metrics_csv_problems(str(path)), bad
    assert checks.metrics_csv_problems(str(tmp_path / "absent.csv"))


def test_checkpoint_check_flags_non_finite_values(tmp_path):
    from fedcold.checkpoint import load_checkpoint, save_checkpoint

    save_checkpoint(str(tmp_path / "ok.ckpt"), {"w": np.ones((2, 2))})
    save_checkpoint(str(tmp_path / "bad.ckpt"), {"w": np.array([[1.0, np.nan]])})
    assert checks.checkpoint_names(str(tmp_path)) == ["bad.ckpt", "ok.ckpt"]
    assert checks.checkpoint_problems(str(tmp_path), ["ok.ckpt"], load_checkpoint) == []
    assert checks.checkpoint_problems(str(tmp_path), ["bad.ckpt", "gone.ckpt"], load_checkpoint) == [
        "bad.ckpt: non-finite values in w",
        "gone.ckpt: missing",
    ]


def test_cold_auc_counts_ties_as_half():
    cold_ids = [3, 5, 7]
    cold_rows = np.array([[3.0], [2.0], [2.0]])
    users = np.array([[1.0], [1.0]])
    # user 0: item 3 beats both others -> 1; user 1: item 5 ties 7, loses to 3 -> 0.25
    auc = checks.cold_auc(users, cold_ids, cold_rows, {0: {3}, 1: {5}})
    assert auc == pytest.approx((1.0 + 0.25) / 2)


def test_sparse_inputs_are_a_function_of_the_seed(tmp_path):
    inputs = spec.WORKLOADS["cold-4x-sparse"].inputs
    texts = []
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        directory = tmp_path / name
        directory.mkdir()
        inputs.write(str(directory), seed)
        texts.append((directory / "interactions.csv").read_text() + (directory / "features.csv").read_text())
    assert texts[0] == texts[1] != texts[2]
    users = {line.split(",")[0] for line in texts[0].splitlines()[1:] if line.startswith("u")}
    assert len(users) == inputs.users
    assert "np.float64" not in texts[0]


def test_workload_configs_parse():
    from fedcold.config import parse_config

    for workload in spec.WORKLOADS.values():
        cfg = parse_config(workload.config_text(), base_dir=ROOT)
        assert cfg.rounds == int(workload.overrides["rounds"])
