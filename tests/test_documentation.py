"""Meta-test: every public item in the library carries a docstring.

Walks every module under ``repro`` and asserts that all public modules,
classes, functions, and methods are documented. This turns the project's
documentation requirement into an enforced invariant rather than a
convention. The prose docs may name only modules and attributes that
exist.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md"))]
#: last parts that make a dotted name a file name, not a Python name
FILE_SUFFIXES = {"json", "jsonl", "sock"}


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


MODULES = list(_iter_modules())


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        defined_here = getattr(obj, "__module__", None) == module.__name__
        if not defined_here:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"module {module.__name__} lacks a docstring"
    )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module):
    undocumented = []
    for name, obj in _public_members(module):
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr) and not (
                    attr.__doc__ and attr.__doc__.strip()
                ):
                    undocumented.append(
                        f"{module.__name__}.{name}.{attr_name}"
                    )
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_every_package_reexports_something():
    """Package __init__ files expose a curated __all__."""
    for module in MODULES:
        if module.__name__.count(".") == 1 and hasattr(module, "__path__"):
            assert getattr(module, "__all__", None), (
                f"package {module.__name__} has no __all__"
            )


def _resolves(dotted):
    """Whether ``dotted`` imports, or its longest importable prefix has
    the rest as attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_docs_name_only_existing_modules():
    missing = []
    for doc in DOCS:
        text = doc.read_text()
        for dotted in sorted(set(re.findall(r"\brepro(?:\.\w+)+", text))):
            if dotted.rsplit(".", 1)[1] in FILE_SUFFIXES:
                continue
            if not _resolves(dotted):
                missing.append(f"{doc.relative_to(ROOT)}: {dotted}")
    assert not missing, missing
