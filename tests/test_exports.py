"""The public names each module exports."""

import importlib

import pytest

MODULES = [
    "apery",
    "apery.arith",
    "apery.cachefile",
    "apery.congruences",
    "apery.function",
    "apery.mzv",
    "apery.sequence",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
