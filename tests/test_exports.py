import importlib
import pkgutil

import pytest

import bmradar

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(bmradar.__path__)
                 if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(f"bmradar.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from bmradar.{name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_the_package_lists_modules():
    assert {"estimation", "manifold", "harness"} <= set(MODULES)
