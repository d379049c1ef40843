"""The public API: each module's ``__all__`` and the package's exports.

A name leaves the API by leaving both the module's ``__all__`` and the
package namespace (README "Removed API"); these checks catch a name left
behind in one of them.
"""

import importlib
import pkgutil
import types

import pytest

import spherekit

MODULES = [importlib.import_module(f"spherekit.{info.name}")
           for info in pkgutil.iter_modules(spherekit.__path__)]
PUBLIC_MODULES = [m for m in MODULES if not m.__name__.rpartition(".")[2].startswith("_")]


@pytest.mark.parametrize("module", PUBLIC_MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_every_package_export_is_in_a_module_all():
    listed = {name for module in PUBLIC_MODULES for name in module.__all__}
    exports = {name for name, value in vars(spherekit).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exports - listed) == []
