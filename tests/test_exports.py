import ast
import importlib
import pathlib
import pkgutil

import wavesel


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is removed breaks
    # `from wavesel.<module> import *` and misleads readers of the module
    missing = {}
    for info in pkgutil.iter_modules(wavesel.__path__):
        module = importlib.import_module(f"wavesel.{info.name}")
        names = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        if names:
            missing[info.name] = names
    assert missing == {}


def test_every_helper_is_exported_or_used():
    # a top-level function or class that is neither in its module's
    # __all__ nor referenced anywhere in the package is dead code
    sources = {info.name: ast.parse(pathlib.Path(wavesel.__path__[0], f"{info.name}.py")
                                    .read_text(encoding="utf-8"))
               for info in pkgutil.iter_modules(wavesel.__path__)}
    used = set()
    for tree in sources.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = {}
    for name, tree in sources.items():
        exported = set(getattr(importlib.import_module(f"wavesel.{name}"), "__all__", ()))
        defined = [node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        names = [d for d in defined if d not in exported and d not in used]
        if names:
            unused[name] = names
    assert unused == {}
