"""The model code builds no ``Mat``, standard library only.

A ``Mat`` is a checked value entering the program or a scoring pass:
``preprocess``'s result, the face matrix of a scoring batch, and the
input of ``encode`` and ``head_score``, all built in ``pipeline.py``.
The network and the classifiers take and return plain arrays and check
a training input once, so a ``Mat(...)`` call in them would re-check
values on every step.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcodean"


def _mat_calls(path: Path) -> list[int]:
    """Line numbers of every call of a name or attribute named ``Mat``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Mat":
                lines.append(node.lineno)
    return lines


def test_model_modules_build_no_mat():
    found = {name: _mat_calls(PACKAGE / name) for name in ("network.py", "classifiers.py")}
    assert found == {"network.py": [], "classifiers.py": []}


def test_guard_sees_a_mat_call(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .tensor import Mat\n\n\ndef f(a):\n    return tensor.Mat(Mat(a))\n")
    assert _mat_calls(path) == [5, 5]
