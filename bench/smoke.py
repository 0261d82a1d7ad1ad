"""Smoke test for the benchmark itself; exits 0 when every check passes.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size (a few seconds in
all) and checks that:

* each run is correct and reports exactly the metrics BENCHMARK.json
  names, each with its unit: the end-to-end ones untraced, the per-layer
  ones traced;
* the counts a later change may cite repeat exactly between two traced
  runs with the same seed;
* a traced run leaves no function patched;
* a failed output check makes the result incorrect;
* in a directory holding only BENCHMARK.json and the benchmark, the
  command exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

REPEATABLE_COUNTS = ("tensor.Mat.init_calls", "network.loss_and_grads.calls",
                     "classifiers.forest_nodes", "bundle.bytes", "optimizer.lr_decays")


def tiny(wl: run.Workload) -> run.Workload:
    return replace(wl, counts=(40, 40, 20), l=8, epochs=2, head_epochs=5,
                   min_test_acc=None, min_euc_reduction=None,
                   overrides={"forest_trees": 2, "svm_epochs": 2, "weight_steps": 20})


def quiet_execute(name, wl, seed, trace):
    with contextlib.redirect_stdout(io.StringIO()):
        return run.execute(name, wl, seed, 0.0, trace)


def check(ok: bool, what: str, failures: list) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_package()
    run.OUT_DIR.mkdir(exist_ok=True)
    import rcodean.pipeline
    original_train_full = rcodean.pipeline.train_full
    failures: list[str] = []
    for entry in spec["workloads"]:
        name = entry["name"]
        wl = tiny(run.WORKLOADS[name])
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = quiet_execute(name, wl, 7, trace)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} trace={int(trace)}: correct, {result['attempted']} operations", failures)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            check(got == want, f"{name} trace={int(trace)}: every declared metric and unit",
                  failures)
            if trace:
                again = quiet_execute(name, wl, 7, True)["metrics"]
                same = all(result["metrics"][c]["value"] == again[c]["value"]
                           for c in REPEATABLE_COUNTS)
                check(same, f"{name}: counts repeat for the same seed", failures)
        check(rcodean.pipeline.train_full is original_train_full,
              f"{name}: traced runs restore every patched function", failures)

    strict = replace(tiny(run.WORKLOADS["train-ref"]), min_test_acc=1.01)
    result = quiet_execute("train-ref", strict, 7, False)
    check(not result["correct"] and result["failed"] >= 1,
          "an unmet accuracy threshold fails the run", failures)

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "serve",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without the program the command exits {proc.returncode} and prints no result",
          failures)

    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
