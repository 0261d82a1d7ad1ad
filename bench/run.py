"""rcodean benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload train-ref --seed 0 --seconds 10 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, and nothing outside the checkout is read or written (scratch
files and results go to ``.bench_out/``). Load comes from one process
and one caller, with one BLAS thread.

A run is made of rounds, the same for every workload at different sizes:

* set-up: generate the synthetic dataset from ``--seed`` and write the
  test images to disk as 218x178 packed grayscale files, so
  ``preprocess`` really resamples. It runs once before the first round,
  closes every round and is topped up to seven runs (``setup_s`` is
  their mean without the fastest and the slowest);
* training: ``train_full`` on the dataset, followed by ``evaluate`` on
  the test split, opens each of the workload's first ``trainings``
  rounds (one for the train workloads, five for ``serve``);
* serving: a closed loop with one caller decoding and predicting each
  test file, in four chunks; each chunk follows a bundle save/load cycle
  and precedes a 200-image batch through ``preprocess`` +
  ``predict_batch``, all on the reloaded bundle.

Rounds go on until serving alone has taken ``--seconds`` and there have
been at least three rounds and one per training.

Every operation is checked: trained models must reach the workload's
accuracy and reconstruction thresholds, batch predictions of the reloaded
bundle must be bit-identical to the in-memory bundle's, and each
one-image prediction must match its row of the batch (bits exactly,
confidences to 1e-12: a one-column matrix product sums in another order
than a 200-column one). A failure counts in ``failed`` and makes the
command exit 1.

``--trace 1`` reports per-layer metrics instead (see ``tracing.py``): it
first trains once untraced, for the overhead figure, then runs the
workload with every layer's entry points wrapped and prints a self-time
table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before numpy loads. With the default two on two
# vCPUs, every multi-threaded BLAS call hands work to a second thread that
# the scheduler places at will: one-image predict tails reached 40-60 ms
# against 20 ms, and training and batches were no faster.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
FILE_SHAPE = (218, 178)     # on-disk test image size (height, width)
SETUP_REPEATS = 7
CHUNKS_PER_ROUND = 4
MIN_ROUNDS = 3
CONF_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """Dataset split sizes and training settings for one workload."""
    counts: tuple[int, int, int]     # ae-train, clf-train, test images
    k: int
    epochs: int
    head_epochs: int = 300
    l: int = 64
    trainings: int = 1
    min_test_acc: float | None = 0.95
    min_euc_reduction: float | None = 0.80
    overrides: dict = field(default_factory=dict)  # further PipelineConfig fields


WORKLOADS = {
    "train-ref": Workload((1000, 200, 200), k=4, epochs=10),
    "train-stage2": Workload((200, 2000, 200), k=8, epochs=10),
    "serve": Workload((200, 200, 200), k=4, epochs=3, trainings=5,
                      min_test_acc=None, min_euc_reduction=None),
}


def _percentile(q):
    """The q-th percentile of the samples; a lone sample is its own."""
    return lambda xs: statistics.quantiles(xs, n=100)[q - 1] if len(xs) > 1 else xs[0]


def _trimmed_mean(xs):
    """Mean of the samples without the fastest and the slowest one."""
    xs = sorted(xs)
    return statistics.mean(xs[1:-1] if len(xs) > 2 else xs)


# metric -> (unit, sample list, reduction of that list to the reported
# value), all over the whole run. On a shared host all code runs up to 1.8x
# faster for stretches, and the share of fast samples changes from run to
# run. The one-image latency is bimodal under it: its p75 and p90 stay in
# the common, slow mode while the median and p95 did not. Set-ups come in
# two kinds (after a serving round, and back to back when topped up), so
# their median flips between the two; a trimmed mean does not.
E2E = {
    "setup_s": ("s", "setup_s", _trimmed_mean),
    "train_s": ("s", "train_s", statistics.median),
    "test_acc": ("frac", "test_acc", statistics.median),
    "predict_one_ms_p75": ("ms", "predict_one_ms", _percentile(75)),
    "predict_one_ms_p90": ("ms", "predict_one_ms", _percentile(90)),
    "predict_batch_img_per_s": ("img/s", "predict_batch_img_per_s", statistics.median),
    "bundle_save_ms": ("ms", "bundle_save_ms", statistics.median),
    "bundle_load_ms": ("ms", "bundle_load_ms", statistics.median),
    "peak_rss_mb": ("MB", "peak_rss_mb", max),
}


def import_package():
    """Import rcodean from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "rcodean" / "__init__.py").is_file():
        print(f"bench: no rcodean package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import rcodean
    if Path(rcodean.__file__).resolve().parent != (src / "rcodean").resolve():
        print(f"bench: imported rcodean from {rcodean.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build[k] for k in ("name", "version", "openblas configuration") if k in build}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# inputs


def _resize(img, shape):
    """Separable linear resample with edge clamping; inputs for the files."""
    import numpy as np
    out_h, out_w = shape
    h, w = img.shape
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0, x0 = ys.astype(int), xs.astype(int)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    wy, wx = (ys - y0)[:, None], xs - x0
    rows = img[y0] * (1 - wy) + img[y1] * wy
    return rows[:, x0] * (1 - wx) + rows[:, x1] * wx


def set_up(wl: Workload, seed: int, work: Path):
    """Generate the dataset and write its test images; returns the dataset
    and the test file paths in test-split order."""
    from rcodean import data
    ds = data.gen_synthetic(sum(wl.counts), wl.k, seed=seed,
                            splits=data.split_by_counts(wl.counts))
    paths = []
    for j, i in enumerate(ds.splits["test"]):
        path = work / f"img_{j:04d}.rcim"
        data.save_gray_image(path, _resize(ds.image(int(i)), FILE_SHAPE))
        paths.append(path)
    return ds, paths


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)
        return ok

    @contextlib.contextmanager
    def guard(self, what: str):
        """Count an operation that raised as failed, and keep going."""
        try:
            yield
        except Exception as exc:  # the benchmark must report, not crash
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")


def train_once(wl, ds, cfg, tally, samples):
    """train_full plus evaluate; returns the in-memory bundle."""
    from rcodean import pipeline
    t0 = time.perf_counter()
    bundle, histories = pipeline.train_full(ds, cfg)
    samples["train_s"].append(time.perf_counter() - t0)
    report = pipeline.evaluate(bundle, ds, "test")
    samples["test_acc"].append(report.mean_accuracy)
    if wl.min_test_acc is not None:
        tally.record(report.mean_accuracy >= wl.min_test_acc,
                     f"test_acc {report.mean_accuracy:.4f} < {wl.min_test_acc}")
    if wl.min_euc_reduction is not None:
        worst = min(1.0 - h[-1].euc / h[0].euc for h in histories)
        tally.record(worst >= wl.min_euc_reduction,
                     f"euclidean-loss reduction {worst:.3f} < {wl.min_euc_reduction}")
    return bundle


def serve_round(bundle, paths, raw, ref, work, tally, samples, span):
    """One pass of one-image predictions over every file, in chunks; each
    chunk follows a bundle save/load cycle and precedes a 200-image batch,
    so the three kinds of sample spread evenly over the run."""
    import numpy as np
    from rcodean import bundle as bundle_io, data, pipeline
    ref_bits, ref_conf = ref
    loaded = None
    path = work / "model.rcbn"
    step = -(-len(paths) // CHUNKS_PER_ROUND)
    for first in range(0, len(paths), step):
        with tally.guard("bundle cycle"), span("bench.bundle_cycle"):
            t0 = time.perf_counter()
            bundle_io.save_bundle(bundle, path)
            t1 = time.perf_counter()
            loaded = bundle_io.load_bundle(path)
            t2 = time.perf_counter()
            samples["bundle_save_ms"].append((t1 - t0) * 1e3)
            samples["bundle_load_ms"].append((t2 - t1) * 1e3)
            tally.record(True)
        if loaded is None:
            continue
        with span("bench.predict_one_chunk"):
            for j in range(first, min(first + step, len(paths))):
                with tally.guard(f"predict {paths[j].name}"):
                    t0 = time.perf_counter()
                    bits, conf = pipeline.predict(loaded, data.load_gray_image(paths[j]))
                    samples["predict_one_ms"].append((time.perf_counter() - t0) * 1e3)
                    tally.record(np.array_equal(bits, ref_bits[j])
                                 and float(np.max(np.abs(conf - ref_conf[j]))) <= CONF_TOL,
                                 f"predict {paths[j].name} differs from its predict_batch row")
        with tally.guard("predict_batch"), span("bench.batch"):
            t0 = time.perf_counter()
            stack = np.stack([pipeline.preprocess(img).a for img in raw])
            bits, conf, _ = pipeline.predict_batch(loaded, stack)
            samples["predict_batch_img_per_s"].append(len(raw) / (time.perf_counter() - t0))
            tally.record(np.array_equal(bits, ref_bits) and np.array_equal(conf, ref_conf),
                         "reloaded bundle's batch predictions differ from the in-memory bundle's")


def run_workload(wl: Workload, seed: int, seconds: float, tracer, work: Path):
    """Run all phases; returns (tally, samples, wall seconds, extra)."""
    import numpy as np
    from rcodean import data, pipeline
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    samples = {key: [] for _, key, _ in E2E.values()}
    extra = {}
    tally = Tally()
    work.mkdir(parents=True, exist_ok=True)
    wall0 = time.perf_counter()

    def timed_set_up():
        with span("bench.setup"):
            t0 = time.perf_counter()
            inputs = set_up(wl, seed, work)
            samples["setup_s"].append(time.perf_counter() - t0)
        return inputs

    ds, paths = timed_set_up()
    cfg = pipeline.PipelineConfig(l=wl.l, epochs=wl.epochs, head_epochs=wl.head_epochs,
                                  batch_size=128, seed=seed, **wl.overrides)
    if tracer is not None:
        # one untraced training first, so the run states its own overhead
        tracer.remove()
        t0 = time.perf_counter()
        pipeline.train_full(ds, cfg)
        extra["untraced_train_s"] = time.perf_counter() - t0
        tracer.install()

    raw = [data.load_gray_image(p) for p in paths]
    stack = np.stack([pipeline.preprocess(img).a for img in raw])
    # Trainings open the first rounds and a set-up closes every round, so
    # each kind of sample is spread over the run rather than bunched at its
    # start; the serving rounds alone make up --seconds.
    rounds, served = 0, 0.0
    while rounds < max(MIN_ROUNDS, wl.trainings) or served < seconds:
        if rounds < wl.trainings:
            with span("bench.train"):
                bundle = train_once(wl, ds, cfg, tally, samples)
            ref_bits, ref_conf, _ = pipeline.predict_batch(bundle, stack)
        t0 = time.perf_counter()
        serve_round(bundle, paths, raw, (ref_bits, ref_conf), work, tally, samples, span)
        served += time.perf_counter() - t0
        rounds += 1
        timed_set_up()
    while len(samples["setup_s"]) < SETUP_REPEATS:
        timed_set_up()
    return tally, samples, time.perf_counter() - wall0, extra


def e2e_metrics(samples) -> tuple[dict, dict]:
    """Each end-to-end metric reduced over its samples, and the sample counts."""
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    metrics, counts = {}, {}
    for m, (unit, key, reduce) in E2E.items():
        metrics[m] = {"value": reduce(samples[key]) if samples[key] else 0.0, "unit": unit}
        counts[m] = len(samples[key])
    return metrics, counts


def execute(name: str, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and print its report; returns the result object."""
    from tracing import Tracer
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        tally, samples, wall, extra = run_workload(wl, seed, seconds, tracer, work)
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}: {wl}")
    print("environment " + json.dumps(env, sort_keys=True))
    if tracer is not None:
        metrics = tracer.metrics(extra["untraced_train_s"])
        print(tracer.table(wall - extra["untraced_train_s"]))
        tracer.dump(OUT_DIR / f"spans-{tag}.json")
        print(f"tracing overhead: train_full {metrics['trace.train_full_s']['value']:.3f} s "
              f"traced vs {extra['untraced_train_s']:.3f} s untraced; "
              f"hooks not found: {tracer.missing or 'none'}")
        counts = {}
    else:
        metrics, counts = e2e_metrics(samples)
    for m, v in metrics.items():
        n = f" (n={counts[m]})" if m in counts else ""
        print(f"{m} {v['value']:.6g} {v['unit']}{n}")
    print(f"failed_frac {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                    "environment": env, "sample_counts": counts, **result,
                    "samples": samples}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    OUT_DIR.mkdir(exist_ok=True)
    result = execute(args.workload, WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
