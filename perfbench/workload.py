"""One workload process: import fedcold, load the config, run the stages.

    python3 perfbench/workload.py <job.json>

``run.py`` spawns this script once per iteration (and once per set-up probe)
with a job file naming the config, seed, stages and output directory.  The
stages go through ``fedcold.cli.main`` in this one process.  Timestamps are
CLOCK_MONOTONIC, so the parent can measure from the moment it spawned us.
After the last stage the process checks its outputs, outside the timed
region, and writes a result file for the parent.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
import traceback

clock = time.monotonic


def _run_stages(job, stage_list, main, tracer) -> list[dict]:
    stages = []
    for stage in stage_list:
        name = stage[0]
        if name == "attack":  # so that attack trains the mapper every time
            mapper = os.path.join(job["out"], "mapper.ckpt")
            if os.path.exists(mapper):
                os.remove(mapper)
        argv = [*stage, "--config", job["config"], "--seed", str(job["seed"]), "--out", job["out"]]
        span = tracer.open(f"stage.{name}") if tracer else None
        start = clock()
        try:
            code = main(argv)
        except Exception:  # one broken stage must not hide the others' numbers
            traceback.print_exc()
            code = -1
        end = clock()
        if tracer:
            tracer.close(span)
        stages.append({"name": name, "start": start, "end": end, "code": code, "problems": []})
    return stages


def _check(job, stages, cfg) -> float | None:
    """Attach output problems to the stage that wrote the output; return the AUC."""
    from checks import checkpoint_names, checkpoint_problems, metrics_csv_problems
    from fedcold.checkpoint import load_checkpoint

    out = job["out"]
    auc = None
    for stage in stages:
        if stage["code"] != 0:
            stage["problems"].append(f"exit code {stage['code']}")
            continue
        if stage["name"] == "train":
            names = [n for n in checkpoint_names(out) if n != "mapper.ckpt"]
            stage["problems"] += checkpoint_problems(out, names, load_checkpoint)
        elif stage["name"] == "attack":
            stage["problems"] += checkpoint_problems(out, ["mapper.ckpt"], load_checkpoint)
        elif stage["name"] == "eval":
            stage["problems"] += metrics_csv_problems(os.path.join(out, "metrics.csv"))
            try:
                auc = _auc(cfg, out)
            except (OSError, ValueError, KeyError) as exc:
                stage["problems"].append(f"cold AUC: {exc}")
    return auc


def _float(text: str) -> float:
    # cli._fmt writes numpy scalars as "np.float64(...)" under numpy 2
    return float(text.removeprefix("np.float64(").removesuffix(")"))


def _auc(cfg, out: str) -> float:
    import numpy as np

    from checks import cold_auc
    from fedcold.checkpoint import load_checkpoint
    from fedcold.pipeline import prepare_data

    best = os.path.join(out, "user_embeddings_best.ckpt")
    if not os.path.exists(best):
        best = os.path.join(out, "user_embeddings.ckpt")
    users = load_checkpoint(best)["user_embeddings"]
    with open(os.path.join(out, "embeddings_export.csv"), encoding="utf-8") as handle:
        rows = [line.rstrip("\n").split(",") for line in handle][1:]
    cold = [(dense, row) for dense, row in enumerate(rows) if row[1] == "1"]
    cold_ids = [dense for dense, _ in cold]
    cold_rows = np.array([[_float(v) for v in row[2:]] for _, row in cold])
    split = prepare_data(cfg).split
    if cold_ids != list(split.cold_items):
        raise ValueError("embeddings_export.csv cold items differ from the split")
    return cold_auc(users, cold_ids, cold_rows, split.test_items_by_user())


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    from fedcold import cli
    from fedcold.config import load_config

    cfg = dataclasses.replace(load_config(job["config"]), seed=job["seed"], out_dir=job["out"])
    setup_done = clock()
    result = {"setup_done": setup_done}
    if job["stages"]:
        tracer = None
        if job["trace"]:
            import importlib

            from spec import MODULES
            from tracer import Tracer

            tracer = Tracer()
            tracer.install({m: importlib.import_module(f"fedcold.{m}") for m in MODULES})
        stages = _run_stages(job, job["stages"], cli.main, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            tracer.uninstall()
            tracer.save(job["out"])
        # infer and eval take a third of a second, less than the host's speed
        # takes to swing, so untraced iterations rerun them for more samples
        score = [s for s in job["stages"] if s[0] in ("infer", "eval")]
        reruns = [] if tracer else [_run_stages(job, score, cli.main, None) for _ in range(job["score_reruns"])]
        import numpy

        result.update(
            stages=stages,
            reruns=reruns,
            peak_rss_mb=peak_kb / 1024.0,
            cold_auc=_check(job, stages, cfg),
            numpy=numpy.__version__,
            python=sys.version.split()[0],
        )
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
