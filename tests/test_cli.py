import json

import pytest

from bundle_rewrite import rewrite_bundle
from rcodean.cli import main
from rcodean.data import load_attr_list, load_gray_image


TRAIN_FLAGS = ["--l", "8", "--epochs", "2", "--batch-size", "32",
               "--head-epochs", "30", "--weight-steps", "60",
               "--forest-trees", "3", "--forest-depth", "3",
               "--svm-epochs", "4", "--seed", "3"]


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


def test_gradcheck_detects_corrupted_backward(capsys):
    rc = main(["gradcheck", "--trials", "1", "--corrupt-cosine"])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err


def test_gradcheck_zero_trials_is_usage_error(capsys):
    rc = main(["gradcheck", "--trials", "0"])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


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
        "weight_steps": 40, "forest_trees": 2, "forest_depth": 3,
        "svm_epochs": 3, "seed": 9,
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


def test_synthetic_training_path(tmp_path):
    out = tmp_path / "synth_run"
    rc = main(["train", "--synthetic", "70", "--k", "2",
               "--split-counts", "40,20,10", "--out", str(out), *TRAIN_FLAGS])
    assert rc == 0
    assert (out / "model.rcbn").exists()
