"""No exocast module reaches into another module's private names, none
imports a name it never uses, only `models` continues regressors and
builds batched rounds, neither model module imports the other, and only
`experiment` undoes the target transform.

A leading underscore marks a name as internal to its module. Importing one
from a sibling module (`from .experiment import _select`), or reading one as
an attribute of an imported sibling (`sarimax._lagged_block`), couples the
two modules through code the owner may change freely. An unused import is
most often what a deletion left behind. Forward selection and
`models.with_order`, which turns a SARIMAX order grid into one order on the
target alone, score through `models.Validation`; a second caller of the
regressor continuation or of a round builder would be a second copy of that
protocol. A model reads its regressors' futures as a plain matrix, so what
one model module needs of the other would be a second path around `models`.
The models fit and forecast on the preprocessed scale; the experiment
scores on the raw one, so it alone knows how the target was transformed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "exocast"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_package(node: ast.ImportFrom) -> bool:
    """`from . import x`, `from .x import y`, `from exocast[.x] import y`."""
    module = node.module or ""
    return node.level > 0 or module == "exocast" or module.startswith("exocast.")


def private_uses(source: str) -> list[str]:
    """Each place `source` imports, or reads as an attribute, a private name
    of another exocast module."""
    tree = ast.parse(source)
    modules: set[str] = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module in (None, "exocast"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_checker_catches_both_forms():
    source = (
        "from . import sarimax\n"
        "from .experiment import _select, run_experiment\n"
        "w = sarimax._prepare(order, target)\n"
        "ok = sarimax.fit, sarimax.__name__\n"
    )
    assert private_uses(source) == [
        "line 2: imports _select",
        "line 3: reads sarimax._prepare",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_no_private_name_of_another(path):
    assert private_uses(path.read_text()) == []


def unused_imports(source: str) -> list[str]:
    """Each name `source` imports and never reads, except in a statement
    marked `# noqa: F401`, a deliberate re-export."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        if getattr(node, "module", None) == "__future__" or any("# noqa: F401" in x for x in statement):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: imports {name}" for name, line in imported.items() if name not in read]


def test_unused_import_checker():
    source = (
        "from __future__ import annotations\n"
        "import itertools, os.path\n"
        "from dataclasses import dataclass, replace\n"
        "from .sarimax import (  # noqa: F401\n"
        "    fit,\n"
        ")\n"
        "@dataclass\n"
        "class A:\n"
        "    x: str = os.path.sep\n"
    )
    assert unused_imports(source) == ["line 2: imports itertools", "line 3: imports replace"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text()) == []


# The functions only `models` may call: (module, name).
MODELS_ONLY = {
    ("sarimax", "extrapolate_regressor"),
    ("sarimax", "round_forecaster"),
    ("additive", "round_forecaster"),
}


def models_only_calls(source: str, module: str) -> list[str]:
    """Each place `source`, the text of the exocast module `module`, calls a
    MODELS_ONLY function: by the name it imported, as an attribute of an
    imported sibling module, or, in its own module, by its bare name."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> sibling module
    functions = {name: (owner, name) for owner, name in MODELS_ONLY if owner == module}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package(node):
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module in (None, "exocast"):
                    modules[local] = alias.name
                else:
                    functions[local] = (node.module.rsplit(".", 1)[-1], alias.name)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, called = node.func, None
        if isinstance(func, ast.Name):
            called = functions.get(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            called = (modules.get(func.value.id), func.attr)
        if called in MODELS_ONLY:
            found.append(f"line {node.lineno}: calls {called[0]}.{called[1]}")
    return found


def test_models_only_checker_catches_every_form():
    source = (
        "from . import sarimax as s\n"
        "from .additive import round_forecaster as rounds\n"
        "def extrapolate_regressor(series, horizon): ...\n"
        "s.extrapolate_regressor(x, 12)\n"
        "rounds(train, config, 12, futures)\n"
        "extrapolate_regressor(x, 12)\n"
        "s.fit(train, order)\n"
    )
    assert models_only_calls(source, "sarimax") == [
        "line 4: calls sarimax.extrapolate_regressor",
        "line 5: calls additive.round_forecaster",
        "line 6: calls sarimax.extrapolate_regressor",
    ]
    assert models_only_calls(source, "experiment")[-1] == "line 5: calls additive.round_forecaster"


OTHER_MODULES = [p for p in MODULES if p.stem != "models"]


@pytest.mark.parametrize("path", OTHER_MODULES, ids=[p.stem for p in OTHER_MODULES])
def test_only_models_continues_regressors_and_builds_rounds(path):
    assert models_only_calls(path.read_text(), path.stem) == []


def package_imports(source: str) -> set[str]:
    """The exocast modules `source` imports from, in any form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and _is_package(node):
            if node.module in (None, "exocast"):
                found |= {alias.name for alias in node.names}
            else:
                found.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("exocast.")}
    return found


def test_package_imports_checker_catches_every_form():
    source = (
        "import numpy as np\n"
        "import exocast.series\n"
        "from . import errors, models as m\n"
        "from .sarimax import fit\n"
        "from exocast.additive import fit as additive_fit\n"
        "from exocast import selection\n"
    )
    assert package_imports(source) == {"series", "errors", "models", "sarimax", "additive",
                                       "selection"}


@pytest.mark.parametrize("model, other", [("sarimax", "additive"), ("additive", "sarimax")])
def test_neither_model_module_imports_the_other(model, other):
    assert other not in package_imports((PACKAGE / f"{model}.py").read_text())


def grid_readers(source: str) -> list[str]:
    """The top-level definitions of `source` that read a `.grid` attribute."""
    return sorted({
        top.name
        for top in ast.parse(source).body if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top) if isinstance(node, ast.Attribute) and node.attr == "grid"
    })


def test_only_with_order_turns_a_grid_into_an_order():
    # Fitting, validation and selection see a fixed order; a second reader
    # of an order grid would be a second order search.
    readers = {path.stem: grid_readers(path.read_text()) for path in MODULES}
    assert {stem: names for stem, names in readers.items() if names} == {
        "models": ["ModelSpec", "with_order"],
    }


# The target transform's names, and the modules that may use them: `series`
# defines them, `experiment` undoes the transform after each forecast, and
# the package's `__init__` re-exports `series`' public types.
TRANSFORM_NAMES = {"NormalizationParams", "denormalize", "retrend"}
TRANSFORM_MODULES = {"series", "experiment", "__init__"}


def transform_uses(source: str) -> list[str]:
    """Each place `source` names a TRANSFORM_NAMES name: in an import, bare
    or as an attribute, in line order."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:  # an ast.Name's id, an ast.Attribute's attr
            name = getattr(node, "id", getattr(node, "attr", None))
        if name in TRANSFORM_NAMES:
            found.add((node.lineno, name))
    return [f"line {line}: names {name}" for line, name in sorted(found)]


def test_transform_checker_catches_every_form():
    source = (
        "from .series import NormalizationParams, mae\n"
        "from . import series\n"
        "from exocast.series import retrend as undo\n"
        "y = series.denormalize(x, transform.normalization)\n"
        "z = retrend(y, 1.0, 0.0)\n"
    )
    assert transform_uses(source) == [
        "line 1: names NormalizationParams",
        "line 3: names retrend",
        "line 4: names denormalize",
        "line 5: names retrend",
    ]


MODEL_SIDE = [p for p in MODULES if p.stem not in TRANSFORM_MODULES]


@pytest.mark.parametrize("path", MODEL_SIDE, ids=[p.stem for p in MODEL_SIDE])
def test_only_experiment_undoes_the_target_transform(path):
    assert transform_uses(path.read_text()) == []
