"""The package surface: binsum re-exports every module's __all__, once."""
import importlib
import pkgutil
import sys

import binsum


def test_package_exports_each_module_all_once():
    exported = binsum.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(binsum, name) for name in exported)
    for info in pkgutil.iter_modules(binsum.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"binsum.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name in exported, (info.name, name)
            assert getattr(binsum, name) is getattr(module, name), (info.name, name)
    # the function, not the submodule of the same name
    assert binsum.binom is sys.modules["binsum.binom"].binom
