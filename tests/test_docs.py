"""README.md names package internals in backticks; each must exist."""

import importlib
import os
import pkgutil
import re

import gridprobe

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
# `module._name`, `_Class.attr` or a bare `_name`.
INTERNAL = re.compile(r"[a-z]\w*\._\w+|_[A-Z]\w*\.\w+|_\w+")


def readme_internals() -> set[str]:
    with open(README, encoding="utf-8") as fh:
        spans = re.findall(r"`([^`\n]+)`", fh.read())
    return {s for s in spans if INTERNAL.fullmatch(s)}


def resolves(name: str, modules: dict) -> bool:
    """Whether a module of the package holds the name: the named module
    for `module._name`, any module for `_Class.attr` and `_name`."""
    head, _, attr = name.partition(".")
    if head in modules:
        return hasattr(modules[head], attr)
    return any(hasattr(getattr(module, head, None), attr) if attr
               else hasattr(module, head) for module in modules.values())


def test_readme_internal_names_resolve():
    modules = {info.name: importlib.import_module(f"gridprobe.{info.name}")
               for info in pkgutil.iter_modules(gridprobe.__path__)}
    names = readme_internals()
    assert len(names) >= 20, names
    assert [n for n in sorted(names) if not resolves(n, modules)] == []


def test_a_name_no_module_holds_does_not_resolve():
    modules = {"grouping": importlib.import_module("gridprobe.grouping")}
    assert resolves("_Labelling.check", modules)
    assert resolves("grouping._starts", modules)
    assert not resolves("_Labelling.no_such_reader", modules)
    assert not resolves("grouping._no_such_cut", modules)
    assert not resolves("_no_such_cut", modules)
