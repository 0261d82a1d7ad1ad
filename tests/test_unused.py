"""Dead-code guard for the package source, standard library only.

Every import in a package module must be used in that module, and every
top-level function or class must be referenced outside its own
definition: elsewhere in its module or in another package module (the
package exports count). Every defaulted parameter of a package function
must be passed by some call in the package or the bench, or be one of
the named exceptions. Whether each function, method and property
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



# defaulted parameters no package or bench call passes, each kept
# settable because a test varies it
UNPASSED_DEFAULTS = {
    "classifiers.py forest_train max_depth": "the per-feature forest oracle runs depths 1-6",
    "classifiers.py svm_train reg": "the SVM oracle and the scale test set the L2 weight",
    "network.py build_rcodean skip_layout": "criteria 03-04 build the plain, skip-free stack",
    "pipeline.py learn_patch_weights lr": "the divergence test drives the rate up",
    "cli.py main argv": "tests call main with an argument list; the console script reads sys.argv",
}


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, position in a call) of each defaulted parameter; a keyword-only
    one has no position, and a method's position skips ``self``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if method and positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
    return found + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` gives the parameter, by keyword or by position."""
    if any(kw.arg == name for kw in call.keywords):
        return True
    return (position is not None and len(call.args) > position
            and not any(isinstance(arg, ast.Starred) for arg in call.args[:position + 1]))


def test_every_default_is_overridden_somewhere():
    # a default that no call in the package or the bench overrides is a
    # fixed value and belongs in a module constant; a call is matched by
    # the callee's name, and a class's __init__ by the class's
    calls: dict[str, list[ast.Call]] = {}
    sources = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unpassed = set()
    for name, module in _modules().items():
        owners = {id(fn): cls.name for cls in ast.walk(module) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(module):
            if not isinstance(fn, ast.FunctionDef):
                continue
            callee = owners[id(fn)] if fn.name == "__init__" else fn.name
            for param, position in _defaulted(fn, id(fn) in owners):
                if not any(_passes(call, param, position) for call in calls.get(callee, [])):
                    unpassed.add(f"{name} {fn.name} {param}")
    # an exception that no longer matches fails too, so the list stays exact
    assert unpassed == set(UNPASSED_DEFAULTS)
