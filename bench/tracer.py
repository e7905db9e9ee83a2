"""Span tracer that measures modnet's layers from outside the package.

`Tracer.install()` wraps the public functions of each modnet module (and the
tensor ops, the vjps they record, `Tape.backward` and `Adam.step`) with
spans: name, start, end, parent span, training step, and the masked layer
the work belongs to. Spans stay in memory; `save()` writes them out at the
end and `metrics()` turns them into the per-layer figures. A layer's self
time is its span minus the time its child spans cover.

A training step runs from the `temperature()` call that opens an iteration
of the training loop to the end of that iteration's `Adam.step`. Op spans
are attributed to a layer by the weight tensor they read: inside
`Model.apply_with`, an op that reads a layer's realized weights or bias
makes that layer current, and later ops (the activation) stay with it until
another layer's weights are read; inside `effective_weights`, every op
belongs to the layer being masked.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# per-step medians reported as `tensor.<op>.fwd_ms` / `.bwd_ms`
REPORTED_OPS = ("matmul", "sigmoid", "multiply", "add", "relu", "segment_sum", "softmax_cross_entropy")
_NOT_OPS = {"apply_primitive", "finite_difference_check", "forward_op"}

NAME, START, END, PARENT, STEP, TAG = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step: int | None = None
        self.steps = 0
        self.step_span: int | None = None
        self.in_train = False
        self.mask_layer: str | None = None
        self.layer: str | None = None
        self.weights: dict[int, tuple] = {}  # id -> (tensor, layer) inside apply_with
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.step, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        while self.stack and self.stack.pop() != idx:
            pass

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    # -- installation --------------------------------------------------
    def patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, fn, wrapper) -> None:
        """Replace `fn` with `wrapper` in every modnet module that binds it."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "modnet":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, wrapper)

    def install(self) -> "Tracer":
        from modnet import artifact, config, data, masking, models, objectives, regularizers, tensor, training

        for name, fn in inspect.getmembers(tensor, inspect.isfunction):
            if fn.__module__ == tensor.__name__ and not name.startswith("_") and name not in _NOT_OPS:
                self.patch_function(fn, self.spanned(f"tensor.{name}.fwd", fn))
        self.patch_function(tensor.apply_primitive, self._apply_primitive(tensor.apply_primitive))
        self.patch(tensor.Tape, "backward", self.spanned("tensor.backward", tensor.Tape.backward))

        self.patch_function(masking.effective_weights, self._effective_weights(masking.effective_weights))
        self.patch(models.Model, "effective_parameters",
                   self._effective_parameters(models.Model.effective_parameters))
        self.patch(models.Model, "apply_with", self._apply_with(models.Model.apply_with))
        self.patch(models.Model, "mask_probabilities",
                   self.spanned("regularizers.probability", models.Model.mask_probabilities))

        for fn, name in (
            (regularizers.specialization_penalty, "regularizers.specialization"),
            (regularizers.reuse_penalty, "regularizers.reuse"),
            (regularizers.total_mask_regularizer, "regularizers.total"),
            (objectives.irm_penalty, "objectives.irm"),
            (objectives.risk_dummy_grad, "objectives.risk_dummy_grad"),
            (objectives.total_objective, "objectives.total"),
            (training.evaluate, "training.evaluate"),
            (data.load_mnist_set, "data.load_idx"),
            (data.build_colored_mnist, "data.build_envs"),
            (data.build_rotated_envs, "data.build_envs"),
            (config.build_environments, "config.build_environments"),
            (artifact.export_subnetwork, "artifact.export"),
            (artifact.load_subnetwork, "artifact.load"),
            (artifact.load_artifact, "artifact.load_artifact"),
            (artifact.validate_artifact, "artifact.validate"),
            (artifact.model_from_artifact, "artifact.rebuild"),
            (artifact.analyze, "artifact.analyze"),
        ):
            self.patch_function(fn, self.spanned(name, fn))
        self.patch_function(data.batch_iter, self._batch_iter(data.batch_iter))
        self.patch_function(training.train, self._train(training.train))
        self.patch_function(training.temperature, self._temperature(training.temperature))
        self.patch(training.Adam, "step", self._adam_step(training.Adam.step))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------
    def _attribute(self, inputs) -> tuple[str | None, str | None]:
        """(tag for this op, layer whose weights the output still is)."""
        if self.weights:
            layers = [self.weights[id(t)][1] for t in inputs if id(t) in self.weights]
            if layers:
                self.layer = layers[0]
            tag = f"fwd:{self.layer}" if self.layer else None
            return tag, layers[0] if layers and len(layers) == len(inputs) else None
        if self.mask_layer:
            return f"mask:{self.mask_layer}", None
        return None, None

    def _apply_primitive(self, fn):
        @functools.wraps(fn)
        def wrapper(out_data, inputs, vjps):
            op = sys._getframe(1).f_code.co_name
            tag, weight_of = self._attribute(inputs)
            if tag and self.stack and self.spans[self.stack[-1]][NAME].endswith(".fwd"):
                self.spans[self.stack[-1]][TAG] = tag
            timed = tuple(None if v is None else self._vjp(v, f"tensor.{op}.bwd", tag) for v in vjps)
            out = fn(out_data, inputs, timed)
            if weight_of is not None:
                self.weights[id(out)] = (out, weight_of)
            if self.step is not None:
                c = self.counters[self.step]
                c["tensor.out_bytes"] += out.data.nbytes
                if out.requires_grad:
                    c["tensor.tape_nodes"] += 1
            return out

        return wrapper

    def _vjp(self, vjp, name: str, tag: str | None):
        def timed(g):
            t0 = perf_counter()
            result = vjp(g)
            self.spans.append([name, t0, perf_counter(), self.stack[-1] if self.stack else -1, self.step, tag])
            return result

        return timed

    def _effective_weights(self, fn):
        @functools.wraps(fn)
        def wrapper(param, mode, rng=None):
            stochastic = getattr(mode, "temperature", None) is not None
            kind = "sample" if stochastic else "deterministic"
            if stochastic and self.step is not None:
                self.counters[self.step]["masking.gate_entries"] += param.mask_logits.size
            outer = self.mask_layer
            self.mask_layer = param.name
            idx = self.open(f"masking.{param.name}.{kind}")
            try:
                return fn(param, mode, rng)
            finally:
                self.close(idx)
                self.mask_layer = outer

        return wrapper

    def _effective_parameters(self, fn):
        @functools.wraps(fn)
        def wrapper(model, mode, rng=None):
            stochastic = getattr(mode, "temperature", None) is not None
            idx = self.open("masking.sample" if stochastic else "masking.deterministic")
            try:
                return fn(model, mode, rng)
            finally:
                self.close(idx)

        return wrapper

    def _apply_with(self, fn):
        @functools.wraps(fn)
        def wrapper(model, effs, x):
            outer = (self.weights, self.layer)
            self.weights = {id(t): (t, name) for name, t in effs.items()}
            for layer in model.layers:
                self.weights[id(layer.bias)] = (layer.bias, layer.param.name)
            self.layer = None
            idx = self.open("models.forward")
            try:
                return fn(model, effs, x)
            finally:
                self.close(idx)
                self.weights, self.layer = outer

        return wrapper

    def _batch_iter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open("data.batch")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item

        return wrapper

    def _train(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.in_train = True
            idx = self.open("training.train")
            try:
                return fn(*args, **kwargs)
            finally:
                self._end_step()
                self.close(idx)
                self.in_train = False

        return wrapper

    def _temperature(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_train:
                self._end_step()
                self.step = self.steps
                self.steps += 1
                self.step_span = self.open("training.step")
            return fn(*args, **kwargs)

        return wrapper

    def _adam_step(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open("training.adam")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                self._end_step()

        return wrapper

    def _end_step(self) -> None:
        if self.step_span is not None:
            self.close(self.step_span)
        self.step_span = None
        self.step = None

    # -- output --------------------------------------------------------
    def save(self, path: Path) -> None:
        fields = ["name", "start_s", "end_s", "parent", "step", "layer"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))

    def _inside(self, i: int, name: str) -> int | None:
        """Index of the nearest enclosing span called `name`, if any."""
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return p
            p = self.spans[p][PARENT]
        return None

    def metrics(self, layers: list[str]) -> dict[str, tuple[float, str]]:
        """Per-layer figures as {name: (value, unit)}. Per-step values are
        medians over the training steps; per-call values medians over calls."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        per_step: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        step_ms: list[float] = []
        calls: dict[str, list[float]] = defaultdict(list)
        totals: dict[str, float] = defaultdict(float)
        loads: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, _parent, step, tag) in enumerate(spans):
            ms = (t1 - t0) * 1e3
            self_ms = ms - child[i] * 1e3
            if name == "training.step":
                step_ms.append(ms)
                continue
            if step is not None:
                acc = per_step[step]
                acc[name] += ms
                if name == "objectives.total":
                    acc["objectives.self"] += self_ms
                if tag and name.endswith(".bwd"):
                    acc[f"models.{tag.split(':', 1)[1]}.backward"] += ms
                elif tag and tag.startswith("fwd:") and name.endswith(".fwd"):
                    acc[f"models.{tag[4:]}.forward"] += ms
                continue
            if name == "training.evaluate" and self._inside(i, "training.train") is not None:
                totals["training.eval"] += ms
            elif name in ("data.load_idx", "data.build_envs"):
                totals[name] += ms
            elif name in ("masking.deterministic", "artifact.export", "artifact.analyze"):
                calls[name].append(ms)
            elif name in ("artifact.load_artifact", "artifact.validate", "artifact.rebuild"):
                load = self._inside(i, "artifact.load")
                if load is not None:
                    loads[load][name] += ms if name == "artifact.validate" else self_ms

        steps = sorted(per_step)

        def step_median(key: str, source=None) -> float:
            source = per_step if source is None else source
            return statistics.median(source[s].get(key, 0.0) for s in steps) if steps else 0.0

        def call_median(values) -> float:
            return statistics.median(values) if values else 0.0

        out: dict[str, tuple[float, str]] = {
            "masking.sample_ms": (step_median("masking.sample"), "ms"),
            "masking.gate_entries": (step_median("masking.gate_entries", self.counters), "count"),
            "masking.deterministic_ms": (call_median(calls["masking.deterministic"]), "ms"),
            "models.forward_ms": (step_median("models.forward"), "ms"),
        }
        for layer in layers:
            out[f"masking.{layer}.sample_ms"] = (step_median(f"masking.{layer}.sample"), "ms")
            out[f"models.{layer}.forward_ms"] = (step_median(f"models.{layer}.forward"), "ms")
            out[f"models.{layer}.backward_ms"] = (step_median(f"models.{layer}.backward"), "ms")
        out["tensor.backward_ms"] = (step_median("tensor.backward"), "ms")
        out["tensor.tape_nodes"] = (step_median("tensor.tape_nodes", self.counters), "count")
        out["tensor.out_mb"] = (step_median("tensor.out_bytes", self.counters) / 1e6, "MB")
        for op in REPORTED_OPS:
            out[f"tensor.{op}.fwd_ms"] = (step_median(f"tensor.{op}.fwd"), "ms")
            out[f"tensor.{op}.bwd_ms"] = (step_median(f"tensor.{op}.bwd"), "ms")
        for part in ("probability", "specialization", "reuse"):
            out[f"regularizers.{part}_ms"] = (step_median(f"regularizers.{part}"), "ms")
        for part in ("total", "self", "irm"):
            out[f"objectives.{part}_ms"] = (step_median(f"objectives.{part}"), "ms")
        if step_ms:
            p50, p90 = statistics.median(step_ms), statistics.quantiles(step_ms, n=10, method="inclusive")[8]
        else:
            p50 = p90 = 0.0
        out["training.step_ms_p50"] = (p50, "ms")
        out["training.step_ms_p90"] = (p90, "ms")
        out["training.adam_ms"] = (step_median("training.adam"), "ms")
        out["training.eval_ms"] = (totals["training.eval"], "ms")
        out["data.load_idx_ms"] = (totals["data.load_idx"], "ms")
        out["data.build_envs_ms"] = (totals["data.build_envs"], "ms")
        out["data.batch_ms"] = (step_median("data.batch"), "ms")
        out["artifact.export_ms"] = (call_median(calls["artifact.export"]), "ms")
        for part in ("load_artifact", "validate", "rebuild"):
            key = "parse" if part == "load_artifact" else part
            out[f"artifact.{key}_ms"] = (call_median([v[f"artifact.{part}"] for v in loads.values()]), "ms")
        out["artifact.analyze_ms"] = (call_median(calls["artifact.analyze"]), "ms")
        return out
