"""Dead-code guard for the package source, standard library only.

Every import in a package module must be used in that module, and every
top-level function or class must be referenced outside its own
definition: elsewhere in its module or in another package module (the
package exports count). Whether each function, method and property
really runs is checked at run time, in ``test_reachable.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rcodean"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _names_used(nodes) -> set[str]:
    """Every name read, attribute accessed or imported from a module."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                used.update(alias.name for alias in sub.names)
    return used


def _imported(module: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    bound = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_no_unused_imports():
    unused = []
    for name, module in _modules().items():
        if name == "__init__.py":
            continue  # its imports are the package's exports
        read = {sub.id for sub in ast.walk(module) if isinstance(sub, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in _imported(module).items()
                   if bound not in read]
    assert unused == []


def test_no_unreferenced_top_level_definitions():
    modules = _modules()
    unreferenced = []
    for name, module in modules.items():
        elsewhere = _names_used(other for other_name, other in modules.items()
                                if other_name != name)
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = _names_used(other for other in module.body if other is not node)
            if node.name not in own and node.name not in elsewhere:
                unreferenced.append(f"{name}:{node.lineno} {node.name}")
    assert unreferenced == []

