import dataclasses
import io
import json
import os
import shlex
import struct
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bundle_rewrite import rewrite_bundle, write_version1_bundle
import rcodean.network
from fuzzing import FUZZ, time_bound
from rcodean.cli import COMMAND_SETTINGS, SETTING_FLAGS, RunConfig, build_parser, main
from rcodean.data import load_attr_list, load_gray_image
from rcodean.pipeline import PipelineConfig


TRAIN_FLAGS = ["--l", "8", "--epochs", "2", "--batch-size", "32",
               "--head-epochs", "30", "--weight-steps", "60",
               "--forest-trees", "3", "--svm-epochs", "4", "--seed", "3"]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["gen-synth", "--out", str(out), "--n", "60", "--k", "2",
               "--seed", "11"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", str(synth_dir / "list_attr.txt"),
               "--images", str(synth_dir / "images"),
               "--split-fractions", "0.5,0.3,0.2",
               "--out", str(out), *TRAIN_FLAGS])
    assert rc == 0
    return out


def test_gen_synth_outputs(synth_dir):
    ds = load_attr_list(synth_dir / "list_attr.txt", synth_dir / "images")
    assert ds.n == 60 and ds.k == 2
    img = load_gray_image(synth_dir / "images" / "img_000000.rcim")
    assert img.shape == (64, 64)
    assert (synth_dir / "config.json").exists()


def test_train_outputs(run_dir):
    assert (run_dir / "model.rcbn").exists()
    config = json.loads((run_dir / "config.json").read_text())
    assert config["command"] == "train"
    assert config["pipeline"]["l"] == 8
    losses = (run_dir / "losses.csv").read_text().splitlines()
    assert losses[0] == "source,epoch,total,euc,cos,reg,lr"
    # 10 sources x (epochs + baseline) rows
    assert len(losses) == 1 + 10 * 3


def test_train_on_attribute_list_records_its_k(run_dir):
    # the list has 2 attributes; RunConfig's default k is 4
    assert json.loads((run_dir / "config.json").read_text())["k"] == 2


def test_train_determinism_byte_identical_losses(tmp_path, synth_dir):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["train", "--data", str(synth_dir / "list_attr.txt"),
                   "--images", str(synth_dir / "images"),
                   "--split-fractions", "0.5,0.3,0.2",
                   "--out", str(out), *TRAIN_FLAGS])
        assert rc == 0
        outs.append([(out / name).read_bytes() for name in ("losses.csv", "model.rcbn")])
    assert outs[0] == outs[1]


def test_train_missing_dataset(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "dataset not found" in capsys.readouterr().err
    # bad settings and config files are refused the same way, before training
    (tmp_path / "truncated.json").write_text('{"l": 8, "epochs"')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "fractions.json").write_text('{"split_fractions": 5}')
    (tmp_path / "k.json").write_text('{"k": "x"}')
    (tmp_path / "n.json").write_text('{"synthetic_n": -5}')
    (tmp_path / "bool.json").write_text('{"lam": true}')
    (tmp_path / "misspelt.json").write_text('{"epoch": 7, "lr_rate": 0.5, "l": 8}')
    (tmp_path / "counts.json").write_text('{"split_counts": [1000000000000, 0, 0]}')
    # a NUL would otherwise reach a system call as a ValueError
    for name in ("data", "images", "out"):
        (tmp_path / f"nul_{name}.json").write_text(json.dumps({name: "a\u0000b"}))
    (tmp_path / "list_attr.txt").write_text("1\nA\ni.pgm 1\n")
    base = ["--split-counts", "40,20,10", "--out", str(tmp_path / "o"), *TRAIN_FLAGS]
    synthetic = ["--synthetic", "70", "--k", "2", *base]
    listed = ["--out", str(tmp_path / "o"), *TRAIN_FLAGS]
    for args, message in [([*synthetic, "--batch-size", "0"], "batch_size"),
                          ([*synthetic, "--l", "0"], "l must be"),
                          ([*synthetic, "--seed", "-1"], "seed must be"),
                          ([*synthetic, "--config", str(tmp_path / "truncated.json")], "JSON"),
                          ([*synthetic, "--config", str(tmp_path / "list.json")],
                           "not an object"),
                          ([*synthetic, "--config", str(tmp_path / "fractions.json")],
                           "split_fractions must be"),
                          ([*synthetic, "--config", str(tmp_path / "bool.json")],
                           "lam must be"),
                          ([*synthetic, "--config", str(tmp_path / "misspelt.json")],
                           "unknown keys 'epoch', 'lr_rate'"),
                          # refused before 10^12 split indices are allocated
                          ([*synthetic[:4], "--config", str(tmp_path / "counts.json")],
                           "do not sum to synthetic_n 70"),
                          # without the flags that would override the file's value
                          ([*base, "--config", str(tmp_path / "k.json")], "k must be"),
                          ([*base, "--config", str(tmp_path / "n.json")],
                           "synthetic_n must be"),
                          ([*listed, "--images", str(tmp_path),
                            "--config", str(tmp_path / "nul_data.json")], "data must be"),
                          ([*listed, "--data", str(tmp_path / "list_attr.txt"),
                            "--config", str(tmp_path / "nul_images.json")], "images must be"),
                          ([*synthetic[:4], *base[:2], *TRAIN_FLAGS,
                            "--config", str(tmp_path / "nul_out.json")], "out must be")]:
        rc = main(["train", *args])
        assert rc == 2, args
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error:") and message in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists(), args


@pytest.mark.parametrize("command", ["train", "eval"])
def test_split_fractions_beside_split_counts_are_refused_for_synthetic(command, run_dir,
                                                                      tmp_path, capsys):
    # split_counts split a --synthetic dataset, so fractions given beside
    # them would be recorded in the run's config and never read
    out = tmp_path / "o"
    argv = [command, "--synthetic", "70", "--out", str(out),
            *(["--k", "2", *TRAIN_FLAGS] if command == "train"
              else ["--bundle", str(run_dir / "model.rcbn")])]
    (tmp_path / "fractions.json").write_text('{"split_fractions": [0.5, 0.25, 0.25]}')
    (tmp_path / "both.json").write_text(
        '{"split_fractions": [0.5, 0.25, 0.25], "split_counts": [40, 20, 10]}')
    for given in (["--split-counts", "40,20,10", "--split-fractions", "0.5,0.25,0.25"],
                  ["--split-counts", "40,20,10", "--config", str(tmp_path / "fractions.json")],
                  ["--config", str(tmp_path / "both.json")]):
        _assert_usage_error(main([*argv, *given]), capsys,
                            "split_fractions and split_counts both given")
    assert not out.exists()


def test_eval_outputs(run_dir, synth_dir, tmp_path):
    out = tmp_path / "eval"
    rc = main(["eval", "--bundle", str(run_dir / "model.rcbn"),
               "--data", str(synth_dir / "list_attr.txt"),
               "--images", str(synth_dir / "images"),
               "--split-fractions", "0.5,0.3,0.2",
               "--split", "test", "--out", str(out)])
    assert rc == 0
    rows = (out / "accuracy.csv").read_text().splitlines()
    assert rows[0] == "attribute,accuracy_pct"
    assert len(rows) == 1 + 2 + 1  # header, k rows, mean row
    assert rows[-1].startswith("mean,")
    ablation = (out / "ablation.csv").read_text().splitlines()
    assert len(ablation) == 1 + 3
    assert {r.split(",")[0] for r in ablation[1:]} == {"mlp", "forest", "svm"}


def test_eval_records_the_bundle_config(run_dir, synth_dir, tmp_path, capsys):
    # the bundle was trained with --l 8; eval's own --l default is 512
    out = tmp_path / "eval"
    rc = main(["eval", "--bundle", str(run_dir / "model.rcbn"),
               "--data", str(synth_dir / "list_attr.txt"),
               "--images", str(synth_dir / "images"),
               "--split-fractions", "0.5,0.3,0.2", "--out", str(out)])
    assert rc == 0
    recorded = json.loads((out / "eval_config.json").read_text())
    echoed = json.loads(capsys.readouterr().out.splitlines()[0])
    assert recorded == echoed
    trained = json.loads((run_dir / "config.json").read_text())["pipeline"]
    assert recorded["pipeline"]["l"] == 8
    assert {name: recorded["pipeline"][name] for name in trained} == trained


def test_eval_refuses_a_list_of_other_attributes(run_dir, synth_dir, tmp_path, capsys):
    # the same images and labels under other names: k matches, the
    # attributes do not
    lines = (synth_dir / "list_attr.txt").read_text().splitlines()
    lines[1] = "a b"
    (tmp_path / "list_attr.txt").write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--bundle", str(run_dir / "model.rcbn"),
               "--data", str(tmp_path / "list_attr.txt"),
               "--images", str(synth_dir / "images"), "--out", str(tmp_path / "eval")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'a'" in err and "Traceback" not in err
    assert not (tmp_path / "eval").exists()


def test_eval_refuses_training_flags(run_dir, synth_dir, tmp_path, capsys):
    # eval takes the model's settings from the bundle; a training flag
    # would be silently ignored, so it is refused
    args = ["eval", "--bundle", str(run_dir / "model.rcbn"),
            "--data", str(synth_dir / "list_attr.txt"),
            "--images", str(synth_dir / "images"), "--out", str(tmp_path / "eval")]
    for flag in (["--l", "999"], ["--epochs", "7"], ["--forest-trees", "1"]):
        with pytest.raises(SystemExit) as exc:
            main([*args, *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and flag[0] in err
    assert not (tmp_path / "eval").exists()
    assert main([*args, "--seed", "5"]) == 0


def test_eval_refuses_training_settings_in_config_file(run_dir, synth_dir, tmp_path,
                                                       capsys):
    # the file-side twin of the flags above: only the seed may be set
    args = ["eval", "--bundle", str(run_dir / "model.rcbn"),
            "--data", str(synth_dir / "list_attr.txt"),
            "--images", str(synth_dir / "images"), "--out", str(tmp_path / "eval")]
    cfg = tmp_path / "cfg.json"
    for settings in ({"l": 999, "epochs": 7, "forest_trees": 1, "svm_epochs": 2},
                     {"seed": 5, "alpha": 0.5}, {"seed": 5, "sead": 6}):
        cfg.write_text(json.dumps(settings))
        assert main([*args, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert all(name in err for name in settings if name != "seed")
    assert not (tmp_path / "eval").exists()
    cfg.write_text(json.dumps({"seed": 5}))
    assert main([*args, "--config", str(cfg)]) == 0


def test_predict_output(run_dir, synth_dir, capsys):
    rc = main(["predict", "--bundle", str(run_dir / "model.rcbn"),
               "--image", str(synth_dir / "images" / "img_000003.rcim")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "attribute,bit,confidence"
    assert len(lines) == 3
    for line in lines[1:]:
        name, bit, conf = line.split(",")
        assert bit in ("0", "1")
        assert 0.0 <= float(conf) <= 1.0


def test_predict_on_malformed_bundle_is_usage_error(run_dir, synth_dir, tmp_path, capsys):
    bad = rewrite_bundle(run_dir / "model.rcbn", tmp_path / "bad.rcbn",
                         lambda header, chunks: header.pop("arrays"))
    rc = main(["predict", "--bundle", str(bad),
               "--image", str(synth_dir / "images" / "img_000003.rcim")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error:")
    assert "Traceback" not in err


def test_predict_on_version_1_bundle_is_usage_error(synth_dir, tmp_path, capsys):
    old = write_version1_bundle(tmp_path / "v1.rcbn")
    rc = main(["predict", "--bundle", str(old),
               "--image", str(synth_dir / "images" / "img_000003.rcim")])
    _assert_usage_error(rc, capsys, "version 1 is no longer read; retrain")


def test_attribute_list_refuses_k_and_split_counts(run_dir, synth_dir, tmp_path, capsys):
    # an attribute list sets k and is split by fractions: a given k or
    # split_counts would be recorded in config.json but not used
    data = ["--data", str(synth_dir / "list_attr.txt"), "--images", str(synth_dir / "images")]
    (tmp_path / "k.json").write_text('{"k": 2}')
    (tmp_path / "counts.json").write_text('{"split_counts": [30, 20, 10]}')
    train = ["train", *data, "--out", str(tmp_path / "run"), *TRAIN_FLAGS]
    evaluate = ["eval", "--bundle", str(run_dir / "model.rcbn"), *data,
                "--out", str(tmp_path / "eval")]
    for args, given in [([*train, "--split-counts", "30,20,10"], "split_counts"),
                        ([*train, "--k", "2"], "k"),
                        ([*train, "--config", str(tmp_path / "k.json")], "k"),
                        ([*train, "--config", str(tmp_path / "counts.json")], "split_counts"),
                        ([*evaluate, "--split-counts", "30,20,10"], "split_counts")]:
        _assert_usage_error(main(args), capsys, f"{given} apply to --synthetic datasets only")
    # eval takes k from the bundle and has no --k
    with pytest.raises(SystemExit) as exc:
        main([*evaluate, "--k", "2"])
    assert exc.value.code == 2 and "unrecognized arguments: --k 2" in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()
    # the k that eval takes from the bundle is not a given one
    assert main(evaluate) == 0


def test_settings_the_dataset_does_not_read_are_refused(run_dir, tmp_path, capsys):
    # accepted, eval would score the bundle's k attributes whatever k was
    # given, and train would record paths it never read
    synthetic = ["--synthetic", "60", "--split-counts", "30,20,10"]
    evaluate = ["eval", "--bundle", str(run_dir / "model.rcbn"), *synthetic,
                "--out", str(tmp_path / "eval")]
    with pytest.raises(SystemExit) as exc:
        main([*evaluate, "--k", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("rcodean: error:") and "--k 3" in err
    (tmp_path / "k.json").write_text('{"k": 3}')
    _assert_usage_error(main([*evaluate, "--config", str(tmp_path / "k.json")]), capsys,
                        "eval takes k from the bundle")
    missing = tmp_path / "missing"
    train = ["train", *synthetic, "--k", "2", "--out", str(tmp_path / "run"), *TRAIN_FLAGS]
    _assert_usage_error(main([*train, "--data", str(missing / "list.txt"),
                              "--images", str(missing / "img")]),
                        capsys, "data, images apply to --data attribute lists only")
    (tmp_path / "data.json").write_text(json.dumps({"images": str(missing)}))
    _assert_usage_error(main([*train, "--config", str(tmp_path / "data.json")]), capsys,
                        "images apply to --data attribute lists only")
    assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()
    assert main(evaluate) == 0


def _assert_usage_error(rc, capsys, message):
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error:") and message in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "predict"])
def test_deeply_nested_json_is_usage_error(command, synth_dir, tmp_path, capsys):
    # json.loads raises RecursionError, not a ValueError, this deep
    deep = b'{"l": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"
    if command == "train":
        (tmp_path / "deep.json").write_bytes(deep)
        rc = main(["train", "--config", str(tmp_path / "deep.json"),
                   "--out", str(tmp_path / "run")])
        _assert_usage_error(rc, capsys, "is not readable JSON")
        assert not (tmp_path / "run").exists()
    else:
        body = b"RCBN" + struct.pack("<I", len(deep)) + deep
        (tmp_path / "deep.rcbn").write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(["predict", "--bundle", str(tmp_path / "deep.rcbn"),
                   "--image", str(synth_dir / "images" / "img_000003.rcim")])
        _assert_usage_error(rc, capsys, "unreadable header")


def test_predict_with_directory_as_bundle_is_usage_error(synth_dir, tmp_path, capsys):
    rc = main(["predict", "--bundle", str(tmp_path),
               "--image", str(synth_dir / "images" / "img_000003.rcim")])
    _assert_usage_error(rc, capsys, "Is a directory")


FIFO_SECONDS = 10  # a read of a FIFO would wait for a writer past this


@pytest.mark.parametrize("case", ["predict-image", "train-config", "train-data",
                                  "report-weights-bundle", "eval-record"])
def test_fifo_path_is_refused_before_it_is_read(case, run_dir, synth_dir, tmp_path, capsys):
    fifo = tmp_path / "images" / "fifo.rcim"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    bundle = str(run_dir / "model.rcbn")
    names = (synth_dir / "list_attr.txt").read_text().splitlines()[1]
    listed = tmp_path / "list_attr.txt"
    listed.write_text(f"1\n{names}\nfifo.rcim 1 -1\n")
    out = str(tmp_path / "out")
    argv = {"predict-image": ["predict", "--bundle", bundle, "--image", str(fifo)],
            "train-config": ["train", "--config", str(fifo), "--out", out],
            "train-data": ["train", "--data", str(fifo), "--images", str(fifo.parent),
                           "--out", out, *TRAIN_FLAGS],
            "report-weights-bundle": ["report-weights", "--bundle", str(fifo)],
            "eval-record": ["eval", "--bundle", bundle, "--data", str(listed),
                            "--split-fractions", "0,0,1", "--out", out]}[case]
    with time_bound(FIFO_SECONDS):
        rc = main(argv)
    _assert_usage_error(rc, capsys, "not a regular file")
    assert not (tmp_path / "out").exists()


def test_train_on_non_utf8_attribute_list_is_usage_error(tmp_path, capsys):
    attr_list = tmp_path / "list_attr.txt"
    attr_list.write_bytes(b"1\nA\nimg\xe9.rcim 1\n")
    rc = main(["train", "--data", str(attr_list), "--images", str(tmp_path),
               "--out", str(tmp_path / "o"), *TRAIN_FLAGS])
    _assert_usage_error(rc, capsys, "line 3: ")


def test_report_weights(run_dir, capsys):
    rc = main(["report-weights", "--bundle", str(run_dir / "model.rcbn")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("attribute,patch1,")
    assert lines[0].endswith("full_face")
    assert len(lines) == 3
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")[1:]]
        assert len(values) == 10
        assert all(0.0 <= v <= 1.0 for v in values)
        assert max(values) == 1.0


def test_report_weights_to_file(run_dir, tmp_path):
    out = tmp_path / "w.csv"
    rc = main(["report-weights", "--bundle", str(run_dir / "model.rcbn"),
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("attribute,patch1")


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--trials", "2", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gradient check passed" in out
    assert "worst overall" in out


def test_gradcheck_detects_corrupted_backward(capsys, monkeypatch):
    # the analytic side alone drops the cosine term; the finite
    # differences still see it
    real = rcodean.network.loss_and_grads
    monkeypatch.setattr(rcodean.network, "loss_and_grads", lambda net, x, params: real(
        net, x, dataclasses.replace(params, beta=0.0)))
    rc = main(["gradcheck", "--trials", "1"])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err


def test_gradcheck_zero_trials_is_usage_error(capsys):
    rc = main(["gradcheck", "--trials", "0"])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen-synth", "--out", "o", "--n", "-1"],
    # no records: a dataset that train and eval both refuse
    ["gen-synth", "--out", "o", "--n", "0"],
    ["gen-synth", "--out", "o", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
    # numpy refuses these 29 TiB label arrays without allocating them
    ["train", "--synthetic", "1000000000000", "--k", "4"],
    ["gen-synth", "--out", "o", "--n", "1000000000000"],
    # sizes no numpy array can hold, refused as settings
    ["train", "--synthetic", "100000000000000000000", "--k", "4"],
    ["gen-synth", "--out", "o", "--n", "100000000000000000000"],
    ["train", "--synthetic", "100", "--split-counts", "60,20,20",
     "--l", "100000000000000000000"],
    ["gen-synth", "--out", "o", "--n", "5", "--k", "9"],
])
def test_out_of_range_flags_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a relative --out would be made
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err.splitlines()[-1] and "Traceback" not in err, err
    assert not any(tmp_path.iterdir())  # refused before any output is written


def test_invalid_log_level(monkeypatch, capsys):
    monkeypatch.setenv("RCODEAN_LOG", "verbose")
    rc = main(["gradcheck", "--trials", "1"])
    assert rc == 2
    assert "RCODEAN_LOG" in capsys.readouterr().err


def test_log_level_debug_accepted(monkeypatch, synth_dir, capsys):
    monkeypatch.setenv("RCODEAN_LOG", "error")
    rc = main(["report-weights", "--bundle", str(synth_dir / "missing.rcbn")])
    assert rc == 2


def test_config_file_with_flag_override(tmp_path, synth_dir):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "l": 8, "epochs": 1, "batch_size": 32, "head_epochs": 20,
        "weight_steps": 40, "forest_trees": 2, "svm_epochs": 3, "seed": 9,
        "data": str(synth_dir / "list_attr.txt"),
        "images": str(synth_dir / "images"),
        "split_fractions": [0.5, 0.3, 0.2],
    }))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg_file), "--out", str(out),
               "--epochs", "2"])
    assert rc == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["pipeline"]["epochs"] == 2   # flag wins
    assert resolved["pipeline"]["seed"] == 9     # file value kept
    losses = (out / "losses.csv").read_text().splitlines()
    assert len(losses) == 1 + 10 * 3


def test_rerun_from_echoed_config_reproduces(tmp_path, synth_dir):
    out1 = tmp_path / "r1"
    rc = main(["train", "--data", str(synth_dir / "list_attr.txt"),
               "--images", str(synth_dir / "images"),
               "--split-fractions", "0.5,0.3,0.2",
               "--out", str(out1), *TRAIN_FLAGS])
    assert rc == 0
    echoed = json.loads((out1 / "config.json").read_text())
    cfg_file = tmp_path / "echo.json"
    merged = dict(echoed["pipeline"])
    merged.update({"data": echoed["data"], "images": echoed["images"],
                   "split_fractions": echoed["split_fractions"]})
    cfg_file.write_text(json.dumps(merged))
    out2 = tmp_path / "r2"
    rc = main(["train", "--config", str(cfg_file), "--out", str(out2)])
    assert rc == 0
    assert (out1 / "losses.csv").read_bytes() == (out2 / "losses.csv").read_bytes()


def test_each_command_has_one_flag_per_setting_it_takes():
    # train takes every run and pipeline setting; eval takes k and the
    # model's settings from the bundle
    settings = ({f.name for f in dataclasses.fields(PipelineConfig)}
                | {f.name for f in dataclasses.fields(RunConfig)}) - {"pipeline"}
    assert set(SETTING_FLAGS) == set(COMMAND_SETTINGS["train"]) == settings
    assert set(COMMAND_SETTINGS["eval"]) == settings - {
        f.name for f in dataclasses.fields(PipelineConfig) if f.name != "seed"} - {"k"}
    commands = build_parser()._subparsers._group_actions[0].choices
    for command, takes in COMMAND_SETTINGS.items():
        flags = {action.dest: action.option_strings for action in commands[command]._actions
                 if action.dest not in ("help", "config", "bundle", "split")}
        assert flags == {name: [SETTING_FLAGS[name][0]] for name in takes}, command


# fixed hyperparameters that were settings once; a bundle may still record them
DELETED_SETTINGS = {"lr": 0.1, "patience": 3, "min_lr": 1e-5, "head_lr": 0.1,
                    "weight_lr": 0.5, "forest_depth": 4, "svm_reg": 1e-3}


@pytest.mark.parametrize("name", list(DELETED_SETTINGS))
def test_deleted_settings_are_usage_errors(name, tmp_path, capsys):
    train = ["train", "--synthetic", "70", "--k", "2", "--split-counts", "40,20,10",
             "--out", str(tmp_path / "run"), *TRAIN_FLAGS]
    flag = f"--{name.replace('_', '-')}"
    with pytest.raises(SystemExit) as exc:
        main([*train, flag, str(DELETED_SETTINGS[name])])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and flag in err and "Traceback" not in err
    (tmp_path / "cfg.json").write_text(json.dumps({name: DELETED_SETTINGS[name]}))
    _assert_usage_error(main([*train, "--config", str(tmp_path / "cfg.json")]), capsys,
                        f"unknown keys {name!r}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, value", [
    ("--epochs", "-2"), ("--epochs", "0"), ("--head-epochs", "-5"), ("--weight-steps", "-1"),
    ("--svm-epochs", "-3"), ("--forest-trees", "0")])
def test_settings_that_would_train_nothing_are_refused(flag, value, tmp_path, capsys):
    # each trained a part not at all, or the wrong way, and exited 0 or
    # blamed another setting
    rc = main(["train", "--synthetic", "70", "--k", "2", "--split-counts", "40,20,10",
               "--out", str(tmp_path / "run"), *TRAIN_FLAGS, f"{flag}={value}"])
    name = flag[2:].replace("-", "_")
    _assert_usage_error(rc, capsys, f"{name} must be")
    assert not (tmp_path / "run" / "model.rcbn").exists()


def test_synthetic_training_path(tmp_path):
    out = tmp_path / "synth_run"
    rc = main(["train", "--synthetic", "70", "--k", "2",
               "--split-counts", "40,20,10", "--out", str(out), *TRAIN_FLAGS])
    assert rc == 0
    assert (out / "model.rcbn").exists()


# ---------------------------------------------------------------------------
# fuzzed --config files and flag values

CLI_SECONDS = 60  # far above the few seconds the largest training drawn takes

# values of a type no setting takes: text, lists and objects are wrong for
# every field, floats for the integer fields
_WRONG = (st.none() | st.booleans() | st.text(max_size=4)
          | st.lists(st.integers(-2, 2), max_size=3)
          | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_REAL = st.floats(allow_nan=True, allow_infinity=True) | st.integers()


def _mostly(typed):
    """``typed`` two draws in three, else a value of the wrong type, so
    that many drawn configurations get as far as training."""
    return st.integers(0, 2).flatmap(lambda i: typed if i else _WRONG)


def _count(high):
    """A setting that sizes the work: small, at or below its lower bound,
    or a float, never large enough to train for long."""
    return _mostly(st.integers(-2, high) | st.floats(-2, high))


# a tiny valid training that every drawn case starts from
_BASE = {"synthetic_n": 24, "k": 2, "split_counts": [10, 8, 6], "l": 2, "epochs": 1,
         "batch_size": 16, "head_epochs": 3, "weight_steps": 3, "forest_trees": 1,
         "svm_epochs": 1, "seed": 3}
# drawn over any range: these cost nothing to be large
_FREE = {**{name: _mostly(st.integers()) for name in ("batch_size", "seed")},
         **{name: _mostly(_REAL) for name in ("alpha", "beta", "lam")},
         "split_fractions": _mostly(st.lists(_REAL, min_size=2, max_size=4)),
         "split_counts": _mostly(st.lists(st.integers(), min_size=2, max_size=4)
                                 | st.lists(st.integers(0), min_size=3, max_size=3))}
_SIZED = {"synthetic_n": _count(40), "k": _count(9), "l": _count(4), "epochs": _count(2),
          "head_epochs": _count(5), "weight_steps": _count(5), "forest_trees": _count(2),
          "svm_epochs": _count(3)}
_UNKNOWN = st.text(min_size=1, max_size=6).filter(lambda key: key not in SETTING_FLAGS)
# RunConfig fields the fuzz draws apart from the tables above
_DRAWN_APART = {"pipeline", "data", "images", "out"}


def test_fuzz_tables_name_every_setting():
    # a stale name would fuzz on as one more unknown key, and a new
    # setting would never be drawn
    settings = ({f.name for f in dataclasses.fields(PipelineConfig)}
                | {f.name for f in dataclasses.fields(RunConfig)}) - _DRAWN_APART
    assert {*_FREE, *_SIZED} == settings
    assert not set(_FREE) & set(_SIZED)
    assert set(_BASE) <= settings


def _flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def _small_or_not_integer(text: str) -> bool:
    """Whether arbitrary flag text stays out of the sizes that train long."""
    try:
        return int(text) <= 40
    except ValueError:
        return True


@FUZZ
@given(data=st.data())
def test_config_and_flag_values_exit_0_or_usage_error(run_dir, data):
    command = data.draw(st.sampled_from(["train", "train", "eval"]))
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        paths = st.sampled_from([str(Path(tmp) / "missing.txt"), tmp, ""])
        names = sorted(COMMAND_SETTINGS[command])
        settings = {name: value for name, value in _BASE.items() if name in names}
        settings["out"] = out
        # a few settings dropped (only where the default is cheap) or redrawn
        strategies = {**_FREE, **_SIZED, "data": _mostly(paths), "images": _mostly(paths),
                      "out": _mostly(st.sampled_from([out, ""]))}
        for name in data.draw(st.lists(st.sampled_from(names), max_size=3, unique=True),
                              label="changed"):
            if name not in _SIZED and data.draw(st.booleans(), label=f"drop {name}"):
                settings.pop(name, None)
            else:
                settings[name] = data.draw(strategies[name], label=name)
        if data.draw(st.integers(0, 9), label="add unknown keys") == 0:
            settings.update(data.draw(st.dictionaries(_UNKNOWN, _REAL, min_size=1,
                                                      max_size=2), label="unknown"))
        # some settings go on the command line instead, some as arbitrary text
        flags = ["--out", out]
        flag_names = [name for name in names if name in {*_FREE, *_SIZED}]
        for name in data.draw(st.lists(st.sampled_from(flag_names), max_size=2, unique=True),
                              label="flags"):
            typed = strategies[name].map(_flag_text)
            text = st.text(max_size=5).filter(_small_or_not_integer)
            flags += [SETTING_FLAGS[name][0],
                      data.draw(st.integers(0, 2).flatmap(lambda i: typed if i else text),
                                label=name)]
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(settings))
        argv = [command, "--config", str(config), *flags]
        if command == "eval":
            argv += ["--bundle", str(run_dir / "model.rcbn")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with time_bound(CLI_SECONDS), redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse refusing a flag value
                rc = exc.code
        err = stderr.getvalue()
        assert rc in (0, 2), (argv, settings, err)
        assert "Traceback" not in err, err
        if rc == 2:  # split at newlines only: a drawn key may hold other line breaks
            assert "error:" in err.rstrip("\n").split("\n")[-1], err


# ---------------------------------------------------------------------------
# README


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_block_parses():
    # a renamed or removed flag fails here rather than leaving README wrong
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(lines) >= 6
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "rcodean", line
        build_parser().parse_args(words[1:])
