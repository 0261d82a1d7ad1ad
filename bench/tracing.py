"""Span tracer for the benchmark's traced runs.

The tracer wraps rcodean's public functions from outside the package, at
the module attribute each caller looks the function up through (the
package imports functions by name, so ``rcodean.pipeline.loss_and_grads``
and ``rcodean.network.loss_and_grads`` are separate lookups). Spans are
kept in memory as ``(name, start, end, parent, mat_inits)`` tuples, where
``mat_inits`` counts ``Mat`` constructions inside the span, and are
written out once the run ends. Untraced runs never construct a Tracer,
so they patch nothing.

Span names carry the context a per-layer metric needs:

* ``.d1024``/``.d4096``: input dimension of the autoencoder involved
  (patch source or full face);
* ``.full``: the once-per-epoch full-batch loss rather than a minibatch
  step; ``.batch``/``.n1``: a multi-sample or a one-sample call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import rcodean.bundle
import rcodean.classifiers
import rcodean.data
import rcodean.network
import rcodean.pipeline
import rcodean.tensor

TRAIN_SPAN = "pipeline.train_full"

# (metric, unit, span name, reducer). Reducers:
#   mean_ms / mean_us / mean_s: mean duration per call of the span;
#   per_train_s: total span time inside train_full, per train_full call;
#   per_train_calls: span count inside train_full, per train_full call;
#   per_train_mats: Mat constructions inside train_full, per call;
#   gauge: last value recorded by a result hook;
#   child_share: share of train_full covered by its direct child spans;
#   overhead: traced train_full seconds minus the untraced ones.
PER_LAYER = [
    *[(f"network.{fn}.d{d}_ms", "ms", f"network.{fn}.d{d}", "mean_ms")
      for fn in ("loss_and_grads", "net_forward", "codean_loss", "net_backward")
      for d in (1024, 4096)],
    ("network.loss_and_grads.calls", "count", "network.loss_and_grads", "per_train_calls"),
    *[(f"network.encode.d{d}_us", "us", f"network.encode.d{d}.n1", "mean_us")
      for d in (1024, 4096)],
    *[(f"layers.dense_{kind}.{lid}.d{d}_us", "us", f"layers.dense_{kind}.{lid}.d{d}", "mean_us")
      for kind in ("forward", "backward")
      for lid in rcodean.network.LAYER_ORDER
      for d in (1024, 4096)],
    ("tensor.Mat.init_calls", "count", TRAIN_SPAN, "per_train_mats"),
    ("optimizer.adam_step.d1024_ms", "ms", "optimizer.adam_step.d1024", "mean_ms"),
    ("optimizer.adam_step.d4096_ms", "ms", "optimizer.adam_step.d4096", "mean_ms"),
    ("optimizer.adam_step.head_us", "us", "optimizer.adam_step.head", "mean_us"),
    ("optimizer.lr_decays", "count", "optimizer.lr_decays", "gauge"),
    ("classifiers.head_train_s", "s", "classifiers.head_train", "per_train_s"),
    ("classifiers.forest_train_s", "s", "classifiers.forest_train", "per_train_s"),
    ("classifiers.svm_train_s", "s", "classifiers.svm_train", "per_train_s"),
    ("classifiers.forest_nodes", "count", "classifiers.forest_nodes", "gauge"),
    ("classifiers.forest_predict_proba_ms", "ms", "classifiers.forest_predict_proba.n1", "mean_ms"),
    ("classifiers.svm_decision_us", "us", "classifiers.svm_decision.n1", "mean_us"),
    ("classifiers.head_score_us", "us", "classifiers.head_score.n1", "mean_us"),
    ("pipeline.train_stage1_s", "s", "pipeline.train_stage1", "per_train_s"),
    ("pipeline.score_images_s", "s", "pipeline.score_images.batch", "per_train_s"),
    ("pipeline.learn_patch_weights_s", "s", "pipeline.learn_patch_weights", "per_train_s"),
    ("pipeline.preprocess_us", "us", "pipeline.preprocess.resize", "mean_us"),
    ("pipeline.predict_batch_ms", "ms", "pipeline.predict_batch.batch", "mean_ms"),
    ("bundle.bytes", "count", "bundle.bytes", "gauge"),
    ("data.load_gray_image_us", "us", "data.load_gray_image", "mean_us"),
    ("data.gen_synthetic_s", "s", "data.gen_synthetic", "mean_s"),
    ("trace.train_full_s", "s", TRAIN_SPAN, "mean_s"),
    ("trace.train_top_span_share", "frac", TRAIN_SPAN, "child_share"),
    ("trace.overhead_s", "s", TRAIN_SPAN, "overhead"),
]

_SCALE = {"mean_ms": 1e3, "mean_us": 1e6, "mean_s": 1.0}


def _batch(n: int) -> str:
    return "n1" if n == 1 else "batch"


class Tracer:
    """In-memory spans plus result gauges; ``install`` patches, ``remove``
    restores every patched attribute."""

    def __init__(self):
        self.spans: list = []
        self.gauges: dict[str, float] = {}
        self.mat_inits = 0
        self.tag = ""  # dimension context set by the autoencoder entry points
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording -----------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own phases."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.mat_inits))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, mats = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, self.mat_inits - mats)

    def _wrap(self, owner, attr: str, namer, after=None):
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer._open(namer if isinstance(namer, str) else namer(*args, **kwargs))
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    # -- installation --------------------------------------------------

    def install(self) -> None:
        self.missing = []
        net, pipe = rcodean.network, rcodean.pipeline
        clf, data = rcodean.classifiers, rcodean.data

        def entry(fn, suffix=lambda xm: ""):
            # autoencoder entry points set the dimension tag their callees use
            def name(net_, xm, *a, **k):
                self.tag = f"d{net_.input_dim}{suffix(xm)}"
                return f"network.{fn}.{self.tag}"
            return name

        tagged = lambda fn: lambda *a, **k: f"network.{fn}.{self.tag}"
        dense = lambda kind: lambda layer, *a, **k: f"layers.dense_{kind}.{layer.name}.{self.tag}"
        head_dense = lambda kind: lambda layer, *a, **k: f"layers.dense_{kind}.{layer.name}"

        # autoencoder: the minibatch step and its parts, the epoch loss, encode
        self._wrap(pipe, "loss_and_grads", entry("loss_and_grads"))
        self._wrap(pipe, "net_forward", entry("net_forward", lambda xm: ".full"))
        self._wrap(pipe, "codean_loss", tagged("codean_loss"))
        self._wrap(pipe, "encode", entry("encode", lambda xm: f".{_batch(xm.cols)}"))
        for fn in ("net_forward", "codean_loss", "net_backward"):
            self._wrap(net, fn, tagged(fn))
        self._wrap(net, "dense_forward", dense("forward"))
        self._wrap(net, "dense_backward", dense("backward"))
        self._wrap(pipe, "train_autoencoder",
                   lambda n_, X, *a, **k: f"pipeline.train_autoencoder.d{X.shape[0]}")

        # optimizer: autoencoder steps (dimension from enc1.weight) and head steps
        self._wrap(pipe, "adam_step",
                   lambda st, params, g: f"optimizer.adam_step.d{params[0][1].shape[1]}")
        self._wrap(clf, "adam_step", "optimizer.adam_step.head")

        # heads and stage-2 classifiers
        self._wrap(clf, "dense_forward", head_dense("forward"))
        self._wrap(clf, "dense_backward", head_dense("backward"))
        self._wrap(clf, "dense_backward_preact", head_dense("backward_preact"))
        self._wrap(pipe, "head_train", "classifiers.head_train")
        self._wrap(pipe, "head_score",
                   lambda h, code: f"classifiers.head_score.{_batch(code.cols)}")
        self._wrap(pipe, "forest_train", "classifiers.forest_train", self._forest_nodes)
        self._wrap(pipe, "svm_train", "classifiers.svm_train")
        self._wrap(pipe, "forest_predict_proba",
                   lambda f, X: f"classifiers.forest_predict_proba.{_batch(len(X))}")
        self._wrap(pipe, "svm_decision",
                   lambda s, X: f"classifiers.svm_decision.{_batch(len(X))}")

        # pipeline stages
        self._wrap(pipe, "train_full", TRAIN_SPAN, self._lr_decays)
        self._wrap(pipe, "train_stage1", "pipeline.train_stage1")
        self._wrap(pipe, "learn_patch_weights", "pipeline.learn_patch_weights")
        self._wrap(pipe, "build_stage2_features", "pipeline.build_stage2_features")
        self._wrap(pipe, "tessellate_batch", "pipeline.tessellate_batch")
        self._wrap(pipe, "score_images",
                   lambda m, images: f"pipeline.score_images.{_batch(len(images))}")
        self._wrap(pipe, "predict_batch",
                   lambda b, images: f"pipeline.predict_batch.{_batch(len(images))}")
        self._wrap(pipe, "predict", "pipeline.predict")
        self._wrap(pipe, "evaluate", "pipeline.evaluate")
        self._wrap(pipe, "preprocess", lambda image: "pipeline.preprocess." + (
            "resize" if getattr(image, "shape", None) != (64, 64) else "64x64"))

        # persistence and data
        self._wrap(rcodean.bundle, "save_bundle", "bundle.save_bundle", self._bundle_bytes)
        self._wrap(rcodean.bundle, "load_bundle", "bundle.load_bundle")
        self._wrap(data, "load_gray_image", "data.load_gray_image")
        self._wrap(data, "save_gray_image", "data.save_gray_image")
        self._wrap(data, "gen_synthetic", "data.gen_synthetic")

        # Mat constructions, counted without a span
        mat = rcodean.tensor.Mat
        init = mat.__init__

        def counted_init(obj, *args, **kwargs):
            self.mat_inits += 1
            init(obj, *args, **kwargs)

        mat.__init__ = counted_init
        self._patches.append((mat, "__init__", init))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- result hooks --------------------------------------------------

    def _forest_nodes(self, forest, *args, **kwargs):
        self.gauges["classifiers.forest_nodes"] = sum(
            len(tree.feature) for per_attr in forest.trees for tree in per_attr)

    def _lr_decays(self, result, *args, **kwargs):
        _, histories = result
        self.gauges["optimizer.lr_decays"] = sum(
            1 for hist in histories for prev, cur in zip(hist, hist[1:]) if cur.lr < prev.lr)

    def _bundle_bytes(self, result, bundle, path, *args, **kwargs):
        self.gauges["bundle.bytes"] = os.path.getsize(path)

    # -- reduction -----------------------------------------------------

    def _aggregate(self):
        """Per span name: calls, inclusive and self seconds, and the same
        restricted to spans inside train_full; plus train_full children."""
        n = len(self.spans)
        child_time = [0.0] * n
        train_root = [-1] * n
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                train_root[i] = train_root[parent]
            if name == TRAIN_SPAN:
                train_root[i] = i
        agg = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0,
                                   "train_calls": 0, "train_total": 0.0, "mats": 0})
        for i, (name, start, end, parent, mats) in enumerate(self.spans):
            a = agg[name]
            dur = end - start
            a["calls"] += 1
            a["total"] += dur
            a["self"] += dur - child_time[i]
            a["mats"] += mats
            if train_root[i] >= 0 and train_root[i] != i:
                a["train_calls"] += 1
                a["train_total"] += dur
        train = agg.get(TRAIN_SPAN)
        if train:
            train["child_total"] = sum(child_time[i] for i in range(n)
                                       if self.spans[i][0] == TRAIN_SPAN)
        return agg

    def metrics(self, untraced_train_s: float) -> dict:
        """Every PER_LAYER metric; ``untraced_train_s`` is the same
        workload's train_full time with nothing patched."""
        agg = self._aggregate()
        trains = agg[TRAIN_SPAN]["calls"] if TRAIN_SPAN in agg else 0
        out = {}
        for metric, unit, span, reducer in PER_LAYER:
            a = agg.get(span)
            if reducer == "gauge":
                value = float(self.gauges.get(span, 0))
            elif reducer == "per_train_calls":  # span prefixes per-dimension names
                value = sum(v["train_calls"] for k, v in agg.items()
                            if k.startswith(span + ".")) / max(trains, 1)
            elif a is None or a["calls"] == 0:
                value = 0.0
            elif reducer in _SCALE:
                value = a["total"] / a["calls"] * _SCALE[reducer]
            elif reducer == "per_train_s":
                value = a["train_total"] / max(trains, 1)
            elif reducer == "per_train_mats":
                value = a["mats"] / a["calls"]
            elif reducer == "child_share":
                value = a["child_total"] / a["total"]
            else:  # overhead
                value = a["total"] / a["calls"] - untraced_train_s
            out[metric] = {"value": value, "unit": unit}
        return out

    def table(self, wall: float, limit: int = 40) -> str:
        """Self-time table: span name, calls, self and inclusive seconds,
        and self time as a share of the run's wall time, largest first."""
        agg = self._aggregate()
        rows = sorted(agg.items(), key=lambda kv: kv[1]["self"], reverse=True)
        lines = [f"{'span':<46} {'calls':>8} {'self_s':>9} {'incl_s':>9} {'self%wall':>9}"]
        for name, a in rows[:limit]:
            lines.append(f"{name:<46} {a['calls']:>8} {a['self']:>9.3f} "
                         f"{a['total']:>9.3f} {100 * a['self'] / wall:>8.1f}%")
        if len(rows) > limit:
            rest = sum(a["self"] for _, a in rows[limit:])
            lines.append(f"{'(%d more spans)' % (len(rows) - limit):<46} {'':>8} {rest:>9.3f}")
        return "\n".join(lines)

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, mat_inits]."""
        with open(path, "w") as fh:
            json.dump({"gauges": self.gauges, "missing": self.missing,
                       "spans": self.spans}, fh)

