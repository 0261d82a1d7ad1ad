"""Command-line surface: dataset generation, training, evaluation,
prediction, weight reporting, and gradient verification.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error. The RCODEAN_LOG environment variable (error, info, debug) controls
logging verbosity. Every command echoes its fully resolved configuration,
and train writes it to the output directory before touching anything
else, so a run can be reproduced from its own records.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .bundle import load_bundle, save_bundle
from .data import (AttributeDataset, DEFAULT_SPLIT_FRACTIONS, gen_synthetic,
                   load_attr_list, save_gray_image, load_gray_image,
                   split_by_counts)
from .errors import ConfigError, RCodeanError, UsageError
from .network import gradient_check
from .pipeline import (N_SOURCES, EpochStats, PipelineConfig, evaluate, is_number,
                       predict, train_full)

log = logging.getLogger("rcodean")


@dataclass
class RunConfig:
    """Resolved settings for a training run: data source, splits, output
    location, and the pipeline settings."""
    data: str | None = None
    images: str | None = None
    synthetic_n: int | None = None
    k: int = 4
    split_fractions: tuple = DEFAULT_SPLIT_FRACTIONS
    split_counts: tuple | None = None
    out: str = "run"
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        # the fields come from --config JSON as well as from flags
        for name in ("data", "images"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a path string, got {value!r}")
        if not isinstance(self.out, str) or not self.out:
            raise ConfigError(f"out must be a non-empty path string, got {self.out!r}")
        if self.synthetic_n is not None and not (
                is_number(self.synthetic_n, integral=True) and self.synthetic_n >= 1):
            raise ConfigError(f"synthetic_n must be an integer >= 1, got {self.synthetic_n!r}")
        if not (is_number(self.k, integral=True) and self.k >= 1):
            raise ConfigError(f"k must be an integer >= 1, got {self.k!r}")
        self.split_fractions = _nonnegative_triple("split_fractions", self.split_fractions)
        if self.split_counts is not None:
            self.split_counts = _nonnegative_triple("split_counts", self.split_counts,
                                                    integral=True)


def _nonnegative_triple(name: str, value, integral: bool = False) -> tuple:
    if not (isinstance(value, (list, tuple)) and len(value) == 3
            and all(is_number(v, integral) and v >= 0 for v in value)):
        raise ConfigError(f"{name} must be three nonnegative "
                          f"{'integers' if integral else 'numbers'}, got {value!r}")
    return tuple(value)


def _setup_logging() -> None:
    level = os.environ.get("RCODEAN_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise UsageError(f"RCODEAN_LOG must be one of {sorted(levels)}, got {level!r}")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.handlers.clear()
    log.addHandler(handler)
    log.setLevel(levels[level])


def _fmt(value: float) -> str:
    """Shortest round-trip float text; keeps CSVs byte-stable across runs."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# settings: which each command takes, and which each dataset source reads


def _triple(caster):
    """The argparse type of a flag taking three comma-separated values."""
    def triple(text: str) -> list:
        try:
            values = [caster(part) for part in text.split(",")]
        except ValueError:
            values = []
        if len(values) == 3:
            return values
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}")
    return triple


# every setting by its config key: its flag, the type of the flag's text
# and the flag's help; a PipelineConfig field's flag is its name, typed by
# its default
SETTING_FLAGS = {
    "data": ("--data", str, "attribute list file"),
    "images": ("--images", str, "image directory"),
    "synthetic_n": ("--synthetic", int, "an in-memory synthetic dataset of this size"),
    "k": ("--k", int, "synthetic attribute count"),
    "split_fractions": ("--split-fractions", _triple(float), "e.g. 0.8,0.1,0.1"),
    "split_counts": ("--split-counts", _triple(int), "e.g. 1000,200,200"),
    "out": ("--out", str, None),
    **{f.name: (f"--{f.name.replace('_', '-')}", type(f.default), None)
       for f in dataclasses.fields(PipelineConfig)},
}
# the settings each command takes. eval takes the model's from the bundle,
# k included; of the pipeline settings only the seed, which generates a
# --synthetic dataset, is its own
COMMAND_SETTINGS = {
    "train": tuple(SETTING_FLAGS),
    "eval": ("data", "images", "synthetic_n", "split_fractions", "split_counts", "out",
             "seed"),
}
# the settings each dataset source does not read, and why: given, they
# would be recorded in the run's config but not used
UNREAD_BY_SOURCE = {
    "synthetic": (("data", "images"), "apply to --data attribute lists only; "
                                      "--synthetic generates its dataset in memory"),
    "list": (("k", "split_counts"), "apply to --synthetic datasets only; a --data "
                                    "attribute list sets k and is split by split_fractions"),
}


def _add_setting_flags(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    for name in COMMAND_SETTINGS[command]:
        flag, typ, help_text = SETTING_FLAGS[name]
        p.add_argument(flag, dest=name, type=typ, default=None, help=help_text)


def _read_config_file(path: Path, command: str) -> dict:
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        settings = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"config file {path} is not readable JSON: {exc}") from None
    if not isinstance(settings, dict):
        raise UsageError(f"config file {path} holds a JSON "
                         f"{type(settings).__name__}, not an object")
    # a misspelt key would otherwise leave its setting at the default
    unknown = sorted(set(settings) - set(SETTING_FLAGS))
    if unknown:
        raise UsageError(f"config file {path}: unknown keys "
                         f"{', '.join(map(repr, unknown))}")
    # only eval takes fewer than every setting, the rest coming from its bundle
    refused = sorted(set(settings) - set(COMMAND_SETTINGS[command]))
    if refused:
        raise UsageError(f"config file {path}: {command} takes "
                         f"{', '.join(refused)} from the bundle")
    return settings


def _resolve_run_config(args) -> RunConfig:
    """Defaults, then the config file, then explicit flags, of the
    settings the command takes; a setting its dataset source does not
    read is refused."""
    settings = _read_config_file(Path(args.config), args.command) if args.config else {}
    flags = {name: getattr(args, name) for name in COMMAND_SETTINGS[args.command]}
    settings.update({name: value for name, value in flags.items() if value is not None})
    pipeline = {f.name: settings.pop(f.name) for f in dataclasses.fields(PipelineConfig)
                if f.name in settings}
    cfg = RunConfig(**settings, pipeline=PipelineConfig(**pipeline))
    unread, reason = UNREAD_BY_SOURCE["list" if cfg.synthetic_n is None else "synthetic"]
    given = [name for name in unread if settings.get(name) is not None]
    if given:
        raise UsageError(f"{', '.join(given)} {reason}")
    if cfg.split_counts and settings.get("split_fractions") is not None:
        raise UsageError("split_fractions and split_counts both given: "
                         "split_counts alone splits a --synthetic dataset")
    return cfg


def _load_dataset(cfg: RunConfig) -> AttributeDataset:
    if cfg.synthetic_n is not None:
        # checked before the split indices are made: their count is the sum
        if cfg.split_counts and sum(cfg.split_counts) != cfg.synthetic_n:
            raise ConfigError(f"split_counts {list(cfg.split_counts)} do not sum to "
                              f"synthetic_n {cfg.synthetic_n}")
        splits = split_by_counts(cfg.split_counts) if cfg.split_counts else None
        return gen_synthetic(cfg.synthetic_n, cfg.k, seed=cfg.pipeline.seed,
                             split_fractions=cfg.split_fractions, splits=splits)
    if not cfg.data:
        raise UsageError("dataset not found: pass --data/--images or --synthetic")
    data_path = Path(cfg.data)
    if not data_path.exists():
        raise UsageError(f"dataset not found: {data_path}")
    images_dir = Path(cfg.images) if cfg.images else data_path.parent / "images"
    if not images_dir.exists():
        raise UsageError(f"dataset not found: image directory {images_dir}")
    return load_attr_list(data_path, images_dir, cfg.split_fractions)


# ---------------------------------------------------------------------------
# commands


def _flag_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"--{name} must be >= {low}, got {value}")


def cmd_gen_synth(args) -> int:
    # a dataset of no records is one train and eval both refuse
    _flag_at_least("n", args.n, 1)
    _flag_at_least("seed", args.seed, 0)
    # generated first, so a refused size leaves no directory behind
    ds = gen_synthetic(args.n, args.k, seed=args.seed)
    out = Path(args.out)
    (out / "images").mkdir(parents=True, exist_ok=True)
    lines = [str(ds.n), " ".join(ds.names)]
    for i in range(ds.n):
        name = f"img_{i:06d}.rcim"
        save_gray_image(out / "images" / name, ds.image(i))
        tokens = ["1" if v else "-1" for v in ds.labels[i]]
        lines.append(name + " " + " ".join(tokens))
    (out / "list_attr.txt").write_text("\n".join(lines) + "\n")
    config = {"command": "gen-synth", "n": args.n, "k": args.k,
              "seed": args.seed, "out": str(out)}
    (out / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    print(json.dumps(config, sort_keys=True))
    print(f"wrote {ds.n} images and list_attr.txt under {out}")
    return 0


def _write_losses_csv(path: Path, histories: list[list[EpochStats]]) -> None:
    rows = ["source,epoch,total,euc,cos,reg,lr"]
    for s, history in enumerate(histories):
        for st in history:
            rows.append(f"{s},{st.epoch},{_fmt(st.total)},{_fmt(st.euc)},"
                        f"{_fmt(st.cos)},{_fmt(st.reg)},{_fmt(st.lr)}")
    path.write_text("\n".join(rows) + "\n")


def cmd_train(args) -> int:
    cfg = _resolve_run_config(args)
    dataset = _load_dataset(cfg)
    cfg.k = dataset.k  # an attribute list sets it
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = {**dataclasses.asdict(cfg), "command": "train"}  # a tuple dumps as a list
    (out / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    print(json.dumps(resolved, sort_keys=True))
    bundle, histories = train_full(dataset, cfg.pipeline)
    _write_losses_csv(out / "losses.csv", histories)
    save_bundle(bundle, out / "model.rcbn")
    print(f"bundle written to {out / 'model.rcbn'}")
    return 0


def cmd_eval(args) -> int:
    bundle = load_bundle(args.bundle)
    cfg = _resolve_run_config(args)
    cfg.k = bundle.k
    dataset = _load_dataset(cfg)
    report = evaluate(bundle, dataset, args.split)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = dataclasses.asdict(cfg)
    # the model's settings are the bundle's; of the eval's own pipeline
    # settings only the seed is used, to generate a synthetic dataset
    resolved.update({"command": "eval", "bundle": str(args.bundle),
                     "split": args.split, "pipeline": bundle.config,
                     "data_seed": cfg.pipeline.seed})
    (out / "eval_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    print(json.dumps(resolved, sort_keys=True))
    rows = ["attribute,accuracy_pct"]
    for name, acc in zip(report.attribute_names, report.accuracy):
        rows.append(f"{name},{_fmt(100.0 * acc)}")
    rows.append(f"mean,{_fmt(100.0 * report.mean_accuracy)}")
    (out / "accuracy.csv").write_text("\n".join(rows) + "\n")
    ablation = ["classifier,mean_accuracy_pct"]
    for name, mean in sorted(report.classifier_accuracy.items()):
        ablation.append(f"{name},{_fmt(100.0 * mean)}")
    (out / "ablation.csv").write_text("\n".join(ablation) + "\n")
    print(f"mean accuracy {100.0 * report.mean_accuracy:.2f}% over "
          f"{len(report.attribute_names)} attributes; reports in {out}")
    return 0


def cmd_predict(args) -> int:
    log.info("resolved config: %s", json.dumps(
        {"command": "predict", "bundle": str(args.bundle),
         "image": str(args.image)}, sort_keys=True))
    bundle = load_bundle(args.bundle)
    image = load_gray_image(args.image)
    bits, conf = predict(bundle, image)
    print("attribute,bit,confidence")
    for name, b, c in zip(bundle.attribute_names, bits, conf):
        print(f"{name},{int(b)},{_fmt(c)}")
    return 0


def cmd_report_weights(args) -> int:
    log.info("resolved config: %s", json.dumps(
        {"command": "report-weights", "bundle": str(args.bundle),
         "out": args.out and str(args.out)}, sort_keys=True))
    bundle = load_bundle(args.bundle)
    w = bundle.patch_weights.values
    header = ",".join(["attribute", *(f"patch{i}" for i in range(1, N_SOURCES)), "full_face"])
    rows = [header]
    for name, row in zip(bundle.attribute_names, w):
        rows.append(name + "," + ",".join(_fmt(v) for v in row))
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"weights written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gradcheck(args) -> int:
    _flag_at_least("trials", args.trials, 1)
    _flag_at_least("seed", args.seed, 0)
    report = gradient_check(seed=args.seed, trials=args.trials)
    print(json.dumps({"command": "gradcheck", "seed": args.seed,
                      "trials": args.trials}, sort_keys=True))
    for group in report.groups:
        marker = "ok" if group.passed else "FAIL"
        print(f"{marker} {group.name}: worst relative error {group.worst_rel:.3e}")
    worst = report.worst()
    print(f"worst overall: {worst.name} at {worst.worst_rel:.3e} "
          f"over {report.trials} trials")
    if not report.passed:
        failing = [g.name for g in report.groups if not g.passed]
        print(f"gradient check FAILED for: {', '.join(failing)}", file=sys.stderr)
        return 1
    print("gradient check passed")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcodean",
        description="Cosine+Euclidean residual autoencoder pipeline for "
                    "patch-based facial attribute prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="write a synthetic dataset to disk")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train the full pipeline")
    _add_setting_flags(p, "train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a bundle on a dataset split")
    p.add_argument("--bundle", required=True)
    p.add_argument("--split", default="test")
    _add_setting_flags(p, "eval")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict attributes for one image")
    p.add_argument("--bundle", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report-weights", help="dump the learned patch weights")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report_weights)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (RCodeanError, OSError) as exc:
        # OSError: a path argument that cannot be read or written: missing,
        # a directory, not permitted
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a size flag too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
