"""``bundle.py`` holds the file format only, standard library only.

Each model part names and shapes its stored arrays in its own module:
``network.parameter_shapes`` for an encoder, ``classifiers.head_shapes``
for a head, and ``classifiers.forest_shapes`` with ``Forest.arrays`` and
``Forest.from_arrays`` for the forest, whose node rows ``Forest`` also
checks. So a change to a part is made in one module, and the bundle
module reads none of the names that state a part's layout: layer ids,
activations, head widths, forest fields.

The other way round, ``pipeline.py`` builds the models from each part's
own-named arrays and spells none of the names the bundle stores them
under (``patch_encoders.enc1.weight``, ``svm.biases``) in any string:
``bundle.py`` alone puts the parts' prefixes on and takes them off.
"""

import ast
from pathlib import Path

BUNDLE = Path(__file__).resolve().parents[1] / "src" / "rcodean" / "bundle.py"
PIPELINE = BUNDLE.with_name("pipeline.py")
LAYOUT_NAMES = {"ENCODER_IDS", "LAYER_ORDER", "LAYER_ACTS", "HEAD_ACTS", "head_dims", "Tree"}
STORED_NAMES = ("patch_encoders", "face_encoder", "heads.", "stage2_mlp", "forest.", "svm.")


def _layout_names(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each layout name, or ``dataclasses.fields``, that
    the module imports or reads as an attribute, in line order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in LAYOUT_NAMES
                      or (node.module == "dataclasses" and alias.name == "fields")]
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if node.attr in LAYOUT_NAMES or (owner == "dataclasses" and node.attr == "fields"):
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_bundle_reads_no_model_layout():
    assert _layout_names(BUNDLE) == []


def test_guard_sees_a_layout_import(tmp_path):
    path = tmp_path / "b.py"
    path.write_text("from dataclasses import fields\n"
                    "from .classifiers import HEAD_ACTS as acts, Forest\n"
                    "import dataclasses\n"
                    "from . import network\n"
                    "from .network import LAYER_ACTS, parameter_shapes\n\n"
                    "x = network.ENCODER_IDS, dataclasses.fields(Forest), acts.fields\n")
    assert _layout_names(path) == [(1, "fields"), (2, "HEAD_ACTS"), (5, "LAYER_ACTS"),
                                   (7, "ENCODER_IDS"), (7, "fields")]


def _stored_names(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each stored part or array name in a string
    constant of the module, docstrings and f-string parts included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [(node.lineno, name) for name in STORED_NAMES if name in node.value]
    return sorted(found)


def test_pipeline_names_no_stored_array():
    assert _stored_names(PIPELINE) == []


def test_guard_sees_a_stored_name(tmp_path):
    path = tmp_path / "p.py"
    path.write_text('def f(arrays, name):\n'
                    '    """Reads ``svm.weights``."""\n'
                    '    return prefixed(arrays, "face_encoder"), f"heads.{name}"\n\n'
                    'heads = forest = "a field name, not a stored one"\n')
    assert _stored_names(path) == [(2, "svm."), (3, "face_encoder"), (3, "heads.")]
