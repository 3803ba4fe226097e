"""Every public name the package and its modules declare resolves."""

import importlib
import pkgutil
import types

import pytest

import penaltyflow as pf

# every module but the command-line front end declares its public names
MODULES = [module for module in (
    importlib.import_module(f"penaltyflow.{info.name}")
    for info in pkgutil.iter_modules(pf.__path__))
    if hasattr(module, "__all__")]


def test_only_cli_lacks_all():
    names = {info.name for info in pkgutil.iter_modules(pf.__path__)}
    assert names - {m.__name__.rpartition(".")[2] for m in MODULES} == {"cli"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_package_exports_are_declared():
    # each name the package re-exports is in some module's __all__ and
    # is the object that module defines under it
    declared = {}
    for module in MODULES:
        for name in module.__all__:
            declared.setdefault(name, getattr(module, name))
    exports = {name: value for name, value in vars(pf).items()
               if not name.startswith("_")
               and not isinstance(value, types.ModuleType)}
    undeclared = sorted(set(exports) - set(declared))
    assert not undeclared, f"exported but in no __all__: {undeclared}"
    for name, value in exports.items():
        assert value is declared[name], name
