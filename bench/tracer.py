"""Span tracing of the mstkd layers, installed from outside the package.

`Tracer.install()` replaces every public function and public method of the
modules under `src/mstkd/` with a wrapper that records one span per call:
name, start, end, parent span and an optional quantity (rows, bytes, pairs,
tape nodes). Every reference to an original function is rebound, including
names imported into other modules (`from .evaluation import ...`) and
module-level dispatch tables (`cli._STAGE_COMMANDS`), so the recorded tree
is the real call tree. `uninstall()` puts the originals back.

Spans are kept in memory as small lists and written out by `dump()` when
the benchmark ends. `layer_metrics()` reduces the spans of one op to the
per-layer metrics named in `PER_LAYER`.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

PACKAGE = "mstkd"
LAYERS = ("cli", "pipeline", "data", "store", "models", "autodiff", "losses",
          "training", "evaluation")
STAGES = ("gen_data", "train_teachers", "extract", "train_adaptor",
          "train_student", "evaluate")
AUTODIFF_OPS = ("matmul", "transpose", "add", "sub", "mul", "scale",
                "leaky_relu", "dropout", "l2_normalize", "clamp", "arccos",
                "cos", "logsumexp_rows", "pick", "scatter_replace", "sum_all",
                "mean_all", "affine")

STORE_LOADS = ("store.load_sample_set", "store.load_pairs", "store.load_params")
STORE_SAVES = ("store.save_sample_set", "store.save_pairs", "store.save_params")
EMBEDS = ("models.TeacherModel.embed", "models.StudentModel.embed")
GRAPHS = ("models.backbone_graph", "models.adaptor_graph")
CHECKPOINT_IO = tuple(f"models.{verb}_{kind}" for verb in ("save", "load")
                      for kind in ("teacher", "adaptor", "student"))
TRAINERS = ("training.train_teacher", "training.train_adaptor",
            "training.train_student")
STEP_FORWARD = GRAPHS + ("models.param_tensors", "autodiff.Tape.__init__")

# (name, unit) of every per-layer metric, in print order
PER_LAYER = (
    [(f"pipeline.{s}_s", "s") for s in STAGES]
    + [("pipeline.stages_skipped", "count"),
       ("store.sha256_calls", "count"), ("store.sha256_s", "s"),
       ("store.sha256_mb", "MB"), ("store.hashes_per_artifact", "ratio"),
       ("store.load_s", "s"), ("store.load_mb", "MB"), ("store.load_pairs_s", "s"),
       ("store.save_s", "s"), ("store.save_mb", "MB"),
       ("data.generate_s", "s"), ("data.build_pairs_s", "s"),
       ("models.embed_calls", "count"), ("models.embed_rows", "count"),
       ("models.embed_s", "s"), ("models.adaptor_forward_s", "s"),
       ("models.checkpoint_io_s", "s"), ("models.forward_graph_s", "s"),
       ("losses.elastic_arcface_s", "s"), ("losses.kd_mse_s", "s"),
       ("autodiff.tapes_per_op", "count"), ("autodiff.nodes_per_step", "count"),
       ("autodiff.backward_s", "s")]
    + [(f"autodiff.op.{op}_{kind}", unit) for op in AUTODIFF_OPS
       for kind, unit in (("calls", "count"), ("s", "s"))]
    + [("training.steps", "count"), ("training.samples_per_s", "1/s"),
       ("training.step_forward_s", "s"), ("training.step_backward_s", "s"),
       ("training.step_optim_s", "s"), ("training.validation_s", "s"),
       ("training.fused_target_calls", "count"), ("training.fused_target_s", "s"),
       ("training.batches_dropped", "count"),
       ("evaluation.evaluate_s", "s"), ("evaluation.verification_s", "s"),
       ("evaluation.pairs_scored", "count")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
)


def _size(path) -> int:
    return os.path.getsize(path)


# quantity recorded on a span: fn(args, kwargs, result) -> number
_QTY = {
    "store.sha256_file": lambda a, k, r: _size(a[0]),
    "store.load_sample_set": lambda a, k, r: _size(a[0]),
    "store.load_pairs": lambda a, k, r: _size(a[0]),
    "store.load_params": lambda a, k, r: _size(a[0]),
    "store.save_sample_set": lambda a, k, r: _size(a[1]),
    "store.save_pairs": lambda a, k, r: _size(a[1]),
    "store.save_params": lambda a, k, r: _size(a[0]),
    "models.TeacherModel.embed": lambda a, k, r: len(a[1]),
    "models.StudentModel.embed": lambda a, k, r: len(a[1]),
    "models.backbone_graph": lambda a, k, r: len(a[3]),
    "models.adaptor_graph": lambda a, k, r: len(a[3]),
    "evaluation.pair_scores": lambda a, k, r: a[1].n,
    "autodiff.Tape.backward": lambda a, k, r: len(a[0].nodes),
    "training.DivergenceGuard.check": lambda a, k, r: 0 if r else 1,
}


class Tracer:
    """Records spans at every public function of the mstkd modules."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span: [name_id, parent, start, end, qty, key]
        self.spans: list[list] = []
        self._stack = [-1]
        self._undo: list = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        qty = _QTY.get(name)
        keyed = name == "store.sha256_file"  # key: the path, for waste ratios

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, stack[-1], clock(), 0.0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if qty is not None:
                span[4] = qty(args, kwargs, result)
            if keyed:
                span[5] = str(args[0])
            return result

        return traced

    def _targets(self):
        """(owner, attribute, span name, function) for everything wrapped."""
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    yield mod, name, f"{layer}.{name}", obj
                elif inspect.isclass(obj):
                    for attr, fn in vars(obj).items():
                        if (inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)
                                and (not attr.startswith("_")
                                     or (name, attr) == ("Tape", "__init__"))):
                            yield obj, attr, f"{layer}.{name}.{attr}", fn

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for owner, attr, span_name, fn in self._targets():
            wrapped[fn] = self._wrap(span_name, fn)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapped[fn])
        # rebind imported names and dispatch tables that still hold originals
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            self._undo.append((val, key, item))
                            val[key] = wrapped[item]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tqty\tkey\n")
            for i, (nid, parent, t0, t1, qty, key) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}"
                         f"\t{qty}\t{key or ''}\n")

    # -- reduction ------------------------------------------------------

    def layer_metrics(self, first: int, last: int, stages_skipped: int) -> dict:
        """Per-layer metrics of the spans [first, last), which form one op."""
        names = self.names
        spans = self.spans[first:last]
        child_time = [0.0] * len(spans)
        for nid, parent, t0, t1, _, _ in spans:
            if parent >= first:
                child_time[parent - first] += t1 - t0
        incl: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        qty: dict[str, float] = {}
        under_training: dict[str, float] = {}
        rows_under_training = 0
        validation = 0.0
        keys = set()
        for i, (nid, parent, t0, t1, q, key) in enumerate(spans):
            name = names[nid]
            dur = t1 - t0
            incl[name] = incl.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            qty[name] = qty.get(name, 0) + q
            if key is not None:
                keys.add(key)
            if parent >= first:
                pname = names[spans[parent - first][0]]
                if pname in TRAINERS:
                    under_training[name] = under_training.get(name, 0.0) + dur
                    if name in GRAPHS:
                        rows_under_training += q
                    if pname == "training.train_teacher" and name in (
                            "models.TeacherModel.embed",
                            "evaluation.verification_accuracy"):
                        validation += dur

        def total(table, group):
            return sum(table.get(n, 0) for n in group)

        m = {f"pipeline.{s}_s": incl.get(f"pipeline.cmd_{s}", 0.0) for s in STAGES}
        sha_calls = calls.get("store.sha256_file", 0)
        train_s = total(incl, TRAINERS)
        m.update({
            "pipeline.stages_skipped": stages_skipped,
            "store.sha256_calls": sha_calls,
            "store.sha256_s": incl.get("store.sha256_file", 0.0),
            "store.sha256_mb": qty.get("store.sha256_file", 0) / 1e6,
            "store.hashes_per_artifact": sha_calls / len(keys) if keys else 0.0,
            "store.load_s": total(incl, STORE_LOADS),
            "store.load_mb": total(qty, STORE_LOADS) / 1e6,
            "store.load_pairs_s": incl.get("store.load_pairs", 0.0),
            "store.save_s": total(incl, STORE_SAVES),
            "store.save_mb": total(qty, STORE_SAVES) / 1e6,
            "data.generate_s": incl.get("data.generate", 0.0),
            "data.build_pairs_s": incl.get("data.build_pairs", 0.0),
            "models.embed_calls": total(calls, EMBEDS),
            "models.embed_rows": total(qty, EMBEDS),
            "models.embed_s": total(incl, EMBEDS),
            "models.adaptor_forward_s": incl.get("models.adaptor_forward", 0.0),
            "models.checkpoint_io_s": total(incl, CHECKPOINT_IO),
            "models.forward_graph_s": total(under_training, GRAPHS),
            "losses.elastic_arcface_s": incl.get("losses.elastic_arcface", 0.0),
            "losses.kd_mse_s": incl.get("losses.kd_mse", 0.0),
            "autodiff.tapes_per_op": calls.get("autodiff.Tape.__init__", 0),
            "autodiff.nodes_per_step": (
                qty.get("autodiff.Tape.backward", 0)
                / calls["autodiff.Tape.backward"]
                if calls.get("autodiff.Tape.backward") else 0.0),
            "autodiff.backward_s": incl.get("autodiff.Tape.backward", 0.0),
        })
        for op in AUTODIFF_OPS:
            m[f"autodiff.op.{op}_calls"] = calls.get(f"autodiff.{op}", 0)
            m[f"autodiff.op.{op}_s"] = own.get(f"autodiff.{op}", 0.0)
        m.update({
            "training.steps": calls.get("training.SgdMomentum.step", 0),
            "training.samples_per_s": rows_under_training / train_s if train_s else 0.0,
            "training.step_forward_s": (
                total(under_training, STEP_FORWARD)
                + sum(v for n, v in under_training.items() if n.startswith("losses."))),
            "training.step_backward_s": under_training.get("autodiff.Tape.backward", 0.0),
            "training.step_optim_s": incl.get("training.SgdMomentum.step", 0.0),
            "training.validation_s": validation,
            "training.fused_target_calls": calls.get("training.fused_target", 0),
            "training.fused_target_s": incl.get("training.fused_target", 0.0),
            "training.batches_dropped": qty.get("training.DivergenceGuard.check", 0),
            "evaluation.evaluate_s": incl.get("evaluation.evaluate_embeddings", 0.0),
            "evaluation.verification_s": incl.get("evaluation.verification_accuracy", 0.0),
            "evaluation.pairs_scored": qty.get("evaluation.pair_scores", 0),
        })
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for n, v in own.items()
                                       if n.split(".", 1)[0] == layer)
        return m


def median_metrics(per_op: list[dict]) -> dict:
    """Median over ops of each per-op metric."""
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
