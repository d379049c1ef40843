"""The public API: each module's ``__all__`` and the package's exports.

A name leaves the API by leaving both the module's ``__all__`` and the
package namespace (README "Removed API"); these checks catch a name left
behind in one of them. The layering of the private pair screen is checked
from the source: its primitives live in ``_screen`` alone, and the modules
that screen pairs reach no private name of ``evaluation``.
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

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


SCREEN_PRIMITIVES = {
    "_ROUNDING", "_SCREEN_MAX_NORM", "_SCREEN_MAX_DIM", "_PER_PAIR_SHARE", "_TILE_ROWS",
    "_screen_slack", "_screen_thresholds", "_row_dots", "_span_tiles", "_metric_spans",
    "_label_codes", "_check_integer_labels",
}


def source_tree(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


# ``io`` is left out: its ground-truth reader shares ``evaluation._name_repeat``
# with ``QueryGroundTruth``, so a file and a hand-built record name a repeated
# index alike.
@pytest.mark.parametrize("name", ["objective", "trainer", "diagnostics", "memory", "cli",
                                  "config", "geometry"])
def test_no_private_name_of_evaluation_is_reached(name):
    tree = source_tree(importlib.import_module(f"spherekit.{name}"))
    aliases = {"evaluation"}  # the names the evaluation module is bound to
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "spherekit"):
            aliases.update(a.asname or a.name for a in node.names if a.name == "evaluation")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("evaluation",
                                                                "spherekit.evaluation"):
            reached += [a.name for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr.startswith("_")):
            reached.append(node.attr)
    assert reached == []


def test_the_screen_primitives_are_defined_in_screen_alone():
    defined = {}
    for module in MODULES:
        for node in source_tree(module).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for found in SCREEN_PRIMITIVES.intersection(names):
                defined.setdefault(found, []).append(module.__name__)
    assert defined == {name: ["spherekit._screen"] for name in SCREEN_PRIMITIVES}
