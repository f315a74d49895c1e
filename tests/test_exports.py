"""The public names each module exports."""

import importlib

import pytest

import apery

MODULES = [
    "apery",
    "apery.arith",
    "apery.cachefile",
    "apery.congruences",
    "apery.function",
    "apery.mzv",
    "apery.sequence",
]
DEFINING = [importlib.import_module(name) for name in MODULES[1:]]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_the_union_of_the_modules():
    union = sorted({n for module in DEFINING for n in module.__all__})
    assert apery.__all__ == union
    assert {"PRIMALITY_BOUND", "FORMAT_VERSION"} <= set(union)


@pytest.mark.parametrize("module", DEFINING, ids=MODULES[1:])
def test_package_names_are_the_module_objects(module):
    assert [n for n in module.__all__ if getattr(apery, n) is not getattr(module, n)] == []


def test_one_element_wrappers_are_gone():
    # a caller with one identity passes a one-element list to the plural form
    for name in ("stuffle_residual", "reduced_form_residual"):
        assert not hasattr(apery, name) and not hasattr(apery.mzv, name)
