"""``bundle.py`` holds the file format only, standard library only.

Each model part names and shapes its stored arrays in its own module:
``network.parameter_shapes`` for an encoder, ``classifiers.head_shapes``
for a head, and ``classifiers.forest_shapes`` with ``Forest.arrays`` and
``Forest.from_arrays`` for the forest, whose node rows ``Forest`` also
checks. So a change to a part is made in one module, and the bundle
module reads none of the names that state a part's layout: layer ids,
activations, head widths, forest fields.
"""

import ast
from pathlib import Path

BUNDLE = Path(__file__).resolve().parents[1] / "src" / "rcodean" / "bundle.py"
LAYOUT_NAMES = {"ENCODER_IDS", "LAYER_ORDER", "LAYER_ACTS", "HEAD_ACTS", "head_dims", "Tree"}


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
