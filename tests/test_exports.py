"""Every name a package exports resolves.

The ``__all__`` lists are kept by hand, so a deleted module can leave its
names behind, and ``from repro.<package> import *`` then fails.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    packages = ["repro"] + [
        f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    ]
    missing = []
    for name in packages:
        module = importlib.import_module(name)
        missing += [f"{name}.{e}" for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
    assert missing == []
