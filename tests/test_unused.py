"""Dead-code guard for the package, standard library only.

Every import in a package module must be used in that module, and every
top-level function or class must be referenced outside its own
definition: elsewhere in its module, in another package module (the
package exports count), or in a ``bench/`` script. Every method and
property of a package class, dunder methods aside, must be read as an
attribute somewhere in the package or be named in a ``bench/`` script.
The bench tracer wraps package functions by their names as strings, so
bench scripts are searched as text rather than parsed.
"""

import ast
import re
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


def _bench_text() -> str:
    return "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))


def _named_in(text: str, name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


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
    bench_text = _bench_text()
    unreferenced = []
    for name, module in modules.items():
        elsewhere = _names_used(other for other_name, other in modules.items()
                                if other_name != name)
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = _names_used(other for other in module.body if other is not node)
            if (node.name not in own and node.name not in elsewhere
                    and not _named_in(bench_text, node.name)):
                unreferenced.append(f"{name}:{node.lineno} {node.name}")
    assert unreferenced == []


def test_no_unread_class_members():
    modules = _modules()
    bench_text = _bench_text()
    read = {sub.attr for module in modules.values() for sub in ast.walk(module)
            if isinstance(sub, ast.Attribute)}
    unread = []
    for name, module in modules.items():
        for cls in module.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__") and node.name.endswith("__"))
                        and node.name not in read and not _named_in(bench_text, node.name)):
                    unread.append(f"{name}:{node.lineno} {cls.name}.{node.name}")
    assert unread == []
