import importlib
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
