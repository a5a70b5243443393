"""fedcold benchmark: time the CLI stages end to end, or trace the layers.

    python3 perfbench/run.py --workload cold-4x-sparse --seed 1 --seconds 55 --trace 0

Run it from anywhere inside a checkout; it finds the checkout from its own
location and writes only under ``.perfbench_work/`` there.  Each iteration is
one fresh workload process (``workload.py``) that runs the workload's stages
through ``fedcold.cli.main`` and then reruns infer and eval, which are short,
for more ``score_s`` samples.  With ``--trace 0`` a set-up probe (a
process that only imports fedcold and loads the config) and an iteration
alternate until ``--seconds`` have passed (at least two iterations, so that
every run checks that a rerun reproduces the artifacts), and the end-to-end
metrics are medians over them.  An iteration takes a few seconds, so the
samples of every metric are spread over the whole run.  Before each process
it spawns, this process times a fixed calibration loop, and every end-to-end
time is reported at the reference speed (see ``at_reference_speed``).
With ``--trace 1`` one untraced and one traced iteration run, and the
per-layer metrics come from the traced one's spans.  The last line of stdout
is the JSON result; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, here (for the calibration loop) and in every workload
# process, which inherits the environment: shared cores make more threads
# noisy.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_ITERATIONS = 2  # the determinism check needs a rerun
DEADLINE_S = 150.0  # no iteration starts that would end past this
SCORE_RERUNS = 3  # extra infer+eval passes per untraced iteration, for score_s
# The calibration loop's median time on the machine where the benchmark was
# defined (a 2-vCPU Xeon VM at 2.1 GHz); it only sets the scale of the times.
CALIBRATION_REF_S = 0.2

sys.path.insert(0, HERE)
from checks import determinism_problems, manifest_hashes  # noqa: E402
from spec import END_TO_END, LAYER_METRICS, WORKLOADS, check_declared, load_declared  # noqa: E402

clock = time.monotonic


def calibration_loop() -> float:
    """Seconds that a fixed mix of scalar Python and small numpy work takes.

    The mix resembles the program's: a dot product and a sigmoid per step as
    in client SGD, then small matrix products as in the MLP.  It runs in this
    process, which never imports fedcold, so no change to the program can
    move it.
    """
    rng = np.random.default_rng(0)
    u = rng.standard_normal(64)
    rows = rng.standard_normal((64, 64))
    batch = rng.standard_normal((128, 64))
    start = clock()
    for i in range(36000):
        row = rows[i % 64]
        u = u - 0.001 / (1.0 + math.exp(-0.01 * float(u @ row))) * row
    for _ in range(1200):
        np.tanh(batch @ rows)
    return clock() - start


def at_reference_speed(medians: dict[str, float], calibrations: list[float]) -> dict[str, float]:
    """Scale the times among ``medians`` to the speed of the reference machine.

    The shared host's speed drifts by a third within minutes: over six
    consecutive runs the median train time rose from 1.83 s to 2.78 s, and
    the calibration loop slowed with it (0.174 s to 0.235 s).  A run cannot
    average that out, so each time (unit s) is multiplied by
    ``CALIBRATION_REF_S`` over the run's median calibration time.  Memory and
    quality are not scaled.
    """
    factor = CALIBRATION_REF_S / statistics.median(calibrations)
    return {k: v * factor if END_TO_END[k][0] == "s" else v for k, v in medians.items()}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    return env


def spawn(job: dict, job_dir: str, env: dict, timeout: float) -> tuple[float, dict | None]:
    """Run one workload process; return its spawn time and its result file."""
    os.makedirs(job_dir, exist_ok=True)
    job = dict(job, result=os.path.join(job_dir, "result.json"))
    job_path = os.path.join(job_dir, "job.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    with open(os.path.join(job_dir, "log.txt"), "wb") as log:
        spawned = clock()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workload.py"), job_path],
            cwd=job_dir,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            pass  # reported as a failed process below
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        return spawned, None
    with open(job["result"], encoding="utf-8") as handle:
        return spawned, json.load(handle)


def source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha() -> str | None:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir) or shutil.which("git") is None:
        return None  # a plain checkout, identified by source_sha256 instead
    done = subprocess.run(
        ["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    return done.stdout.strip() or None


class Run:
    """Iterations of one workload at one seed, and what they measured."""

    def __init__(self, name: str, seed: int, work: str) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.iterations: list[dict] = []  # one per completed workload process
        self.setups: list[float] = []
        self.calibrations: list[float] = []  # one before each process spawned
        self.samples: dict[str, list[float]] = {}  # what the end-to-end medians are taken over
        self.started = clock()

    def prepare(self) -> None:
        config = os.path.join(self.work, "workload.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(self.workload.config_text())
        if self.workload.inputs is not None:
            self.workload.inputs.write(self.work, self.seed)
        self.job = {
            "config": config,
            "seed": self.seed,
            "trace": False,
            "stages": [],
            "score_reruns": SCORE_RERUNS,
        }

    def left(self) -> float:
        return DEADLINE_S - (clock() - self.started)

    def probe_setup(self) -> bool:
        """One process that only imports fedcold and loads the config."""
        k = len(self.setups)
        out = os.path.join(self.work, f"setup{k}")
        self.calibrations.append(calibration_loop())
        spawned, result = spawn(dict(self.job, out=out), out, self.env, self.left())
        self.attempted += 1
        if result is None:
            self.failed += 1
            self.problems.append(f"set-up probe {k} failed, see {out}/log.txt")
            return False
        self.setups.append(result["setup_done"] - spawned)
        return True

    def measure(self, budget: float) -> None:
        """Alternate set-up probes and iterations until ``budget`` seconds have passed."""
        measuring = clock()
        cycles: list[float] = []
        while True:
            expected = statistics.mean(cycles) if cycles else 0.0
            enough = len(cycles) >= MIN_ITERATIONS and clock() - measuring + expected > budget
            if enough or expected > self.left():
                return
            began = clock()
            if not self.probe_setup() or self.iterate(trace=False) is None:
                return
            cycles.append(clock() - began)

    def iterate(self, trace: bool) -> dict | None:
        k = len(self.iterations)
        out = os.path.join(self.work, f"it{k}")
        job = dict(self.job, stages=[list(s) for s in self.workload.stages], out=out, trace=trace)
        self.calibrations.append(calibration_loop())
        spawned, result = spawn(job, out, self.env, self.left())
        self.attempted += len(job["stages"])
        if result is None or "stages" not in result:
            self.failed += len(job["stages"])
            self.problems.append(f"iteration {k}: workload process failed, see {out}/log.txt")
            return None
        reruns = [stage for records in result["reruns"] for stage in records]
        self.attempted += len(reruns)
        for stage in reruns:
            if stage["code"] != 0:
                stage["problems"].append(f"rerun exit code {stage['code']}")
        for stage in result["stages"] + reruns:
            if stage["problems"]:
                self.failed += 1
                self.problems += [f"iteration {k} {stage['name']}: {p}" for p in stage["problems"]]
        result.update(
            spawned=spawned,
            out=out,
            hashes=manifest_hashes(out),
            trace=trace,
        )
        self.setups.append(result["setup_done"] - spawned)
        self.iterations.append(result)
        return result

    def check_determinism(self) -> None:
        """Every iteration, traced or not, reproduces the first one's artifacts."""
        if not self.iterations:
            return
        reference = self.iterations[0]["hashes"]
        for k, other in enumerate(self.iterations[1:], start=1):
            self.attempted += 1
            problems = determinism_problems(reference, other["hashes"])
            if problems:
                self.failed += 1
                self.problems += [f"iteration {k} differs from iteration 0: {p}" for p in problems]

    def end_to_end(self) -> dict[str, float]:
        samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        for it in self.iterations:
            if it["trace"]:
                continue
            for records in [it["stages"], *it["reruns"]]:
                took = {s["name"]: s["end"] - s["start"] for s in records}
                if "train" in took:
                    samples["train_s"].append(took["train"])
                if "eval" in took:
                    samples["score_s"].append(took.get("infer", 0.0) + took["eval"])
                if "attack" in took:
                    samples["attack_s"].append(took["attack"])
            samples["total_s"].append(it["stages"][-1]["end"] - it["spawned"])
            samples["peak_rss_mb"].append(it["peak_rss_mb"])
            if it["cold_auc"] is not None:
                samples["cold_auc"].append(it["cold_auc"])
        samples["setup_s"] = self.setups
        self.samples = samples
        medians = {k: statistics.median(v) for k, v in samples.items() if v}
        return at_reference_speed(medians, self.calibrations)

    def per_layer(self) -> dict[str, float]:
        from tracer import layer_metrics, load_spans

        traced = [it for it in self.iterations if it["trace"]]
        plain = [it for it in self.iterations if not it["trace"]]
        if not traced or not plain:
            return {}
        metrics = layer_metrics(*load_spans(traced[0]["out"]))
        total = traced[0]["stages"][-1]["end"] - traced[0]["spawned"]
        metrics["trace.total_s"] = total
        metrics["trace.overhead_s"] = total - (plain[0]["stages"][-1]["end"] - plain[0]["spawned"])
        return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "fedcold", "__init__.py")):
            raise BenchError(f"no fedcold sources under {SRC}")
        problems = check_declared(load_declared(ROOT))
        if problems:
            raise BenchError("BENCHMARK.json: " + "; ".join(problems))
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        # the program reads only non-negative seeds; fold any other seed onto them
        seed = args.seed % 2**31
        build = subprocess.run(
            [sys.executable, "-m", "compileall", "-q", SRC], capture_output=True, check=False
        )
        if build.returncode != 0:
            raise BenchError(f"compileall failed: {build.stdout.decode(errors='replace')}")
        work = os.path.join(WORK, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        run = Run(args.workload, seed, work)
        run.prepare()
        if not run.probe_setup():
            raise BenchError("the set-up probe failed: fedcold does not import or the config does not load")
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        run.job["score_reruns"] = 0  # the untraced iteration only sets the overhead baseline
        run.iterate(trace=False)
        run.iterate(trace=True)
    else:
        run.measure(min(float(args.seconds), DEADLINE_S))
    run.check_determinism()
    metrics = run.per_layer() if args.trace else run.end_to_end()
    if args.trace:
        units = {m.name: m.unit for m in LAYER_METRICS}
    else:
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    for name in sorted(set(units) - set(metrics)):
        run.problems.append(f"metric {name} not measured")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": seed,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": next((it["numpy"] for it in run.iterations), None),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "iterations": len(run.iterations),
        "setup_samples": len(run.setups),
        "calibration_median_s": statistics.median(run.calibrations),
        "calibration_samples": len(run.calibrations),
        "problems": run.problems,
    }
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(set(units) & set(metrics))},
    }
    with open(os.path.join(run.work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"env": env, **result, "samples": run.samples, "calibrations": run.calibrations}, handle, indent=1)
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("perfbench env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
