"""The package namespace and ``__all__`` stay in step.

The package resolves its public names lazily, from one name -> module table;
these tests hold that table to the modules that define the names.
"""

import importlib
import inspect

import pytest

import sqzbudget


def test_all_names_resolve_without_duplicates():
    assert len(set(sqzbudget.__all__)) == len(sqzbudget.__all__)
    for name in sqzbudget.__all__:
        assert hasattr(sqzbudget, name), name
    assert set(sqzbudget.__all__) <= set(dir(sqzbudget))


LAYERS = ("cavity", "chain", "interferometer", "quadcore", "scenario_io", "source")
NOT_EXPORTED = {"check_efficiency"}  # the parameter classes' shared validator


def _public_definitions(module):
    """Public classes and functions that the module defines itself."""
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == module.__name__}


def test_every_public_class_and_function_is_listed():
    assert sorted(sqzbudget._EXPORTS) == sqzbudget.__all__
    # the table maps each public definition of each layer module to that module
    defined = {name: layer for layer in LAYERS
               for name in _public_definitions(importlib.import_module(f"sqzbudget.{layer}"))}
    assert {n: m for n, m in defined.items() if n not in NOT_EXPORTED} == sqzbudget._EXPORTS
    for name, layer in sqzbudget._EXPORTS.items():
        assert getattr(sqzbudget, name) is getattr(importlib.import_module(f"sqzbudget.{layer}"), name)
    # once resolved, the namespace holds no public class or function beyond the table
    public = {
        name for name, obj in vars(sqzbudget).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert public - set(sqzbudget.__all__) == set()


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sqzbudget.no_such_name
    # a public name of a layer module that the table does not export stays out too
    assert not hasattr(sqzbudget, "check_efficiency")
