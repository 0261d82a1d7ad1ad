"""Dead-code guard at run time, standard library only.

``test_unused.py`` reads the source: a method passes there when any
attribute of its name is read, so a dead member of one class hides
behind a live one of another. Here a short CLI session runs in a fresh
process under ``sys.setprofile``: it writes a synthetic dataset, trains
on it in memory and from the written list (with a ``--config`` file),
evaluates, predicts a PGM image that needs resampling, reports the patch
weights and checks gradients. Every package function, method and
property must have been called, dunder methods and names in a ``bench/``
script aside, as in the static guard. A function is known by its code's
file, first line and name, so two members of one name are two entries.
"""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rcodean"

# installed before the package is imported, so import-time calls count;
# every thread the session starts inherits it
SESSION = r"""
import json, os, sys, threading

package, out, argvs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
called = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        called.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))

sys.setprofile(profile)
threading.setprofile(profile)
from rcodean.cli import main
for argv in argvs:
    if main(argv) != 0:
        sys.exit(f"rcodean {' '.join(argv)} failed")
with open(out, "w") as fh:
    json.dump(sorted(called), fh)
"""


def _members(module):
    """(qualified name, name, function) of every function, method and
    property (its getter) defined in ``module``, dunder methods aside."""
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if attr.startswith("__") and attr.endswith("__"):
                    continue
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", attr, member
        elif (inspect.isfunction(inspect.unwrap(obj))
              and inspect.unwrap(obj).__module__ == module.__name__):
            yield name, name, obj


def _unreached(called: set) -> list[str]:
    """``module:qualified name`` of each package function, method and
    property whose code never ran, unless a bench script names it."""
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "rcodean" if path.stem == "__init__" else f"rcodean.{path.stem}")
        for qualname, name, fn in _members(module):
            code = inspect.unwrap(fn).__code__
            if ((path.name, code.co_firstlineno, code.co_name) not in called
                    and re.search(rf"\b{re.escape(name)}\b", bench) is None):
                unreached.append(f"{path.name}:{qualname}")
    return unreached


def _write_pgm(path: Path, height: int, width: int) -> None:
    pixels = bytes((7 * r + 3 * c) % 256 for r in range(height) for c in range(width))
    path.write_bytes(b"P5\n# a test image\n%d %d\n255\n" % (width, height) + pixels)


def _session_argvs(tmp: Path) -> list[list[str]]:
    tiny = ["--l", "4", "--epochs", "1", "--batch-size", "16", "--head-epochs", "2",
            "--weight-steps", "2", "--forest-trees", "1", "--svm-epochs", "1"]
    data = tmp / "data"
    (tmp / "settings.json").write_text(json.dumps({"seed": 3, "split_fractions": [0.5, 0.3, 0.2]}))
    _write_pgm(tmp / "face.pgm", 50, 40)
    return [
        ["gen-synth", "--out", str(data), "--n", "40", "--k", "2", "--seed", "1"],
        ["train", "--synthetic", "40", "--k", "2", "--split-counts", "20,10,10",
         "--out", str(tmp / "synthetic"), *tiny],
        ["train", "--data", str(data / "list_attr.txt"), "--config", str(tmp / "settings.json"),
         "--out", str(tmp / "run"), *tiny],
        ["eval", "--bundle", str(tmp / "run" / "model.rcbn"), "--data",
         str(data / "list_attr.txt"), "--out", str(tmp / "eval")],
        ["predict", "--bundle", str(tmp / "run" / "model.rcbn"), "--image",
         str(tmp / "face.pgm")],
        ["report-weights", "--bundle", str(tmp / "run" / "model.rcbn")],
        ["gradcheck", "--trials", "1"],
    ]


@pytest.fixture(scope="module")
def session_calls(tmp_path_factory) -> set:
    tmp = tmp_path_factory.mktemp("session")
    out = tmp / "called.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "RCODEAN_LOG": "error"}
    result = subprocess.run(
        [sys.executable, "-c", SESSION, str(PACKAGE), str(out),
         json.dumps(_session_argvs(tmp))],
        cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return {tuple(key) for key in json.loads(out.read_text())}


def test_every_package_function_runs_in_a_cli_session(session_calls):
    assert _unreached(session_calls) == []
