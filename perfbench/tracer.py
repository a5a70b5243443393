"""Spans around every public function of the fedcold layers.

``Tracer.install`` wraps each public function and public method of the layer
modules and rebinds the wrapper in every fedcold namespace that holds the
original, so a call is traced whichever module it is looked up from (for
example ``stream_rng`` is imported into most modules).  Spans (name, start,
end, parent) are kept in flat arrays in memory and written out once, when the
run ends.  A few boundaries also record work counts from their arguments or
results; those hooks run after the span has closed.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
import weakref
from array import array

import numpy as np

from spec import MODULES

PACKAGE = "fedcold"
CLOCK = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._alive_uploads: dict[int, weakref.ref] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- span store -------------------------------------------------------

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._code(name))
        self.parents.append(self._stack[-1])
        self._stack.append(idx)
        self.ends.append(math.nan)
        self.starts.append(CLOCK())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = CLOCK()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str):
        """``fn`` recording a span per call; BOUNDARIES may rename it or count work."""
        open_, close = self.open, self.close
        namer, hook = BOUNDARIES.get(name, (None, None))

        if namer is None and hook is None:

            def traced(*args, **kwargs):
                idx = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        else:
            sig = inspect.signature(fn)

            def traced(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                idx = open_(namer(bound.arguments) if namer else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                if hook is not None:
                    hook(self, bound.arguments, result)
                return result

        return functools.update_wrapper(traced, fn)

    # -- patching ---------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        """Wrap public functions of the layer modules in every namespace.

        ``modules`` maps short layer names to imported ``fedcold.<name>``
        modules; every loaded ``fedcold`` module is searched for references.
        A wrapper keeps its original's ``__module__``, but it is only ever
        found again in another module's namespace, where that check skips it.
        """
        namespaces = [
            m for key, m in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapped = self.wrap(value, f"{layer}.{attr}")
                    for ns in namespaces:
                        for key, held in list(vars(ns).items()):
                            if held is value:
                                self._set(ns, key, wrapped)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, fn in list(vars(value).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        self._set(value, meth, self.wrap(fn, f"{layer}.{attr}.{meth}"))

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def save(self, directory: str) -> None:
        np.savez(
            os.path.join(directory, "spans.npz"),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "counters": self.counters}, f)


def load_spans(directory: str) -> tuple[dict, dict]:
    with np.load(os.path.join(directory, "spans.npz")) as data:
        arrays = {k: data[k] for k in data.files}
    with open(os.path.join(directory, "spans.json"), encoding="utf-8") as f:
        meta = json.load(f)
    return arrays, meta


# -- boundary hooks: span names and work counts taken at the call -----------


def _generate_name(arguments) -> str:
    mode = arguments.get("mode") or "deterministic_mean"
    kind = "stochastic" if mode == "stochastic" else "deterministic"
    return f"diffusion.DenoisingGenerator.generate.{kind}"


def _on_generate(tracer: Tracer, arguments, result) -> None:
    kind = _generate_name(arguments).rsplit(".", 1)[1]
    steps = arguments["self"].schedule.steps
    tracer.count(f"diffusion.{kind}.item_steps", len(result) * steps)


def _on_client_train(tracer: Tracer, arguments, result) -> None:
    per_positive = 1 + arguments["config"].negatives_per_positive
    tracer.count("federation.examples", arguments["state"].warm_positives.size * per_positive)


def _on_apply_ldp(tracer: Tracer, arguments, result) -> None:
    tracer.count("federation.upload_rows", len(result))
    tracer.count("federation.upload_bytes", 8 * sum(row.size for row in result.values()))


def _on_aggregate(tracer: Tracer, arguments, result) -> None:
    """Distinct items per call, and whether the call repeats an upload set.

    An upload set repeats when every upload in it was already aggregated and
    is still alive; the weak references drop an upload's id once it is
    collected, so a recycled id is never mistaken for a repeat.
    """
    uploads = arguments["uploads"]
    alive = tracer._alive_uploads
    items = set()
    for up in uploads:
        items.update(up.rows)
    tracer.count("federation.distinct_items", len(items))
    if not (uploads and all(id(up) in alive for up in uploads)):
        tracer.count("federation.aggregate.distinct_sets")
    for up in uploads:
        key = id(up)
        if key not in alive:
            alive[key] = weakref.ref(up, lambda _, key=key: alive.pop(key, None))


def _on_train_epochs(tracer: Tracer, arguments, result) -> None:
    n = arguments["e0_rows"].shape[0]
    batches = -(-n // arguments["batch_size"])
    tracer.count("diffusion.train_steps", arguments["epochs"] * batches)


def _on_evaluate(tracer: Tracer, arguments, result) -> None:
    tracer.count("evaluation.users_ranked", result.n_users)


def _on_sgd_train(tracer: Tracer, arguments, result) -> None:
    tracer.count("mlp.epochs", arguments["epochs"])


def _bytes_counter(key: str):
    def hook(tracer: Tracer, arguments, result) -> None:
        tracer.count(key, os.path.getsize(arguments["path"]))

    return hook


# span name -> (namer, hook)
BOUNDARIES = {
    "diffusion.DenoisingGenerator.generate": (_generate_name, _on_generate),
    "diffusion.DenoisingGenerator.train_epochs": (None, _on_train_epochs),
    "federation.client_local_train": (None, _on_client_train),
    "federation.apply_ldp": (None, _on_apply_ldp),
    "federation.aggregate": (None, _on_aggregate),
    "evaluation.evaluate_cold": (None, _on_evaluate),
    "mlp.TwoLayerMLP.sgd_train": (None, _on_sgd_train),
    "checkpoint.save_checkpoint": (None, _bytes_counter("checkpoint.bytes_written")),
    "cli.write_csv": (None, _bytes_counter("cli.csv_bytes")),
}


# -- derivation -------------------------------------------------------------


def self_times(starts: np.ndarray, ends: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    durations = ends - starts
    children = np.zeros_like(durations)
    nested = parents >= 0
    np.add.at(children, parents[nested], durations[nested])
    return durations - children


def descendants(starts: np.ndarray, ends: np.ndarray, idx: int) -> slice:
    """Index range of the spans nested in span ``idx``.

    Spans are stored in the order they open, so the spans nested in one span
    are the ones right after it that open before it closes.
    """
    stop = int(np.searchsorted(starts, ends[idx], side="left"))
    return slice(idx + 1, max(stop, idx + 1))


# metric -> (span name, "s" | "self_s" | "calls")
SPAN_METRICS = {
    "federation.client_local_train.s": ("federation.client_local_train", "s"),
    "federation.client_local_train.calls": ("federation.client_local_train", "calls"),
    "numerics.sigmoid.calls": ("numerics.sigmoid", "calls"),
    "federation.apply_ldp.s": ("federation.apply_ldp", "s"),
    "federation.aggregate.s": ("federation.aggregate", "s"),
    "federation.aggregate.calls": ("federation.aggregate", "calls"),
    "federation.init_simulation.s": ("federation.init_simulation", "s"),
    "numerics.stream_rng.calls": ("numerics.stream_rng", "calls"),
    "numerics.stream_rng.s": ("numerics.stream_rng", "s"),
    "diffusion.train_epochs.s": ("diffusion.DenoisingGenerator.train_epochs", "s"),
    "diffusion.generate.deterministic.s": ("diffusion.DenoisingGenerator.generate.deterministic", "s"),
    "diffusion.generate.stochastic.s": ("diffusion.DenoisingGenerator.generate.stochastic", "s"),
    "evaluation.evaluate_cold.s": ("evaluation.evaluate_cold", "s"),
    "mlp.sgd_train.s": ("mlp.TwoLayerMLP.sgd_train", "s"),
    "privacy.compare_pipelines.self_s": ("privacy.compare_pipelines", "self_s"),
    "privacy.mi_gaussian_estimate.s": ("privacy.mi_gaussian_estimate", "s"),
    "pipeline.prepare_data.s": ("pipeline.prepare_data", "s"),
    "pipeline.prepare_data.calls": ("pipeline.prepare_data", "calls"),
    "data.load_interactions.s": ("data.load_interactions", "s"),
    "modality.load_features.s": ("modality.load_features", "s"),
    "checkpoint.save_checkpoint.s": ("checkpoint.save_checkpoint", "s"),
    "checkpoint.load_checkpoint.s": ("checkpoint.load_checkpoint", "s"),
    "cli.write_csv.s": ("cli.write_csv", "s"),
    "cli.write_manifest.s": ("cli.write_manifest", "s"),
    "pipeline.run_training.self_s": ("pipeline.run_training", "self_s"),
}

COUNTERS = (
    "federation.examples",
    "federation.upload_rows",
    "federation.upload_bytes",
    "federation.distinct_items",
    "diffusion.train_steps",
    "evaluation.users_ranked",
    "mlp.epochs",
    "checkpoint.bytes_written",
    "cli.csv_bytes",
)

# metric -> (numerator span, inclusive seconds scale, counter)
PER_UNIT = {
    "federation.us_per_example": ("federation.client_local_train", 1e6, "federation.examples"),
    "diffusion.ms_per_train_step": ("diffusion.DenoisingGenerator.train_epochs", 1e3, "diffusion.train_steps"),
    "diffusion.deterministic.us_per_item_step": (
        "diffusion.DenoisingGenerator.generate.deterministic", 1e6, "diffusion.deterministic.item_steps"),
    "diffusion.stochastic.us_per_item_step": (
        "diffusion.DenoisingGenerator.generate.stochastic", 1e6, "diffusion.stochastic.item_steps"),
    "evaluation.us_per_user": ("evaluation.evaluate_cold", 1e6, "evaluation.users_ranked"),
    "mlp.us_per_epoch": ("mlp.TwoLayerMLP.sgd_train", 1e6, "mlp.epochs"),
}


def layer_metrics(arrays: dict, meta: dict) -> dict[str, float]:
    """Per-layer metrics of one traced workload process.

    The trace.* metrics need the untraced run as well and are added by the
    caller.
    """
    names = meta["names"]
    counters = meta["counters"]
    codes = arrays["name_ids"]
    starts, ends, parents = arrays["starts"], arrays["ends"], arrays["parents"]
    durations = ends - starts
    own = self_times(starts, ends, parents)
    code_of = {n: i for i, n in enumerate(names)}

    def pick(span: str) -> np.ndarray:
        code = code_of.get(span)
        return np.zeros(len(codes), bool) if code is None else codes == code

    out: dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        mask = pick(span)
        if kind == "calls":
            out[metric] = float(np.count_nonzero(mask))
        elif kind == "s":
            out[metric] = float(durations[mask].sum())
        else:
            out[metric] = float(own[mask].sum())
    for key in COUNTERS:
        out[key] = float(counters.get(key, 0))
    for metric, (span, scale, counter) in PER_UNIT.items():
        work = counters.get(counter, 0)
        out[metric] = float(durations[pick(span)].sum()) * scale / work if work else 0.0
    calls = out["federation.aggregate.calls"]
    distinct = counters.get("federation.aggregate.distinct_sets", 0)
    out["federation.aggregate.useful_ratio"] = distinct / calls if calls else 0.0

    module_of = np.array([n.split(".", 1)[0] for n in names] + [""])[codes]
    train = np.flatnonzero(pick("stage.train"))
    train_span = descendants(starts, ends, int(train[0])) if train.size else slice(0, 0)
    train_wall = float(durations[train[0]]) if train.size else 0.0
    for module in MODULES:
        mine = module_of == module
        out[f"{module}.self_s"] = float(own[mine].sum())
        in_train = float(own[train_span][mine[train_span]].sum()) if train.size else 0.0
        out[f"{module}.train_share"] = in_train / train_wall if train_wall else 0.0
    return out
