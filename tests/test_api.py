"""The package re-exports exactly the public definitions of its layer modules.

``sqzbudget/__init__.py`` imports each public name from its module and lists
it in ``__all__``; these tests hold that list to the modules that define the
names.
"""

import importlib
import inspect

import pytest

import sqzbudget

LAYERS = ("cavity", "chain", "interferometer", "quadcore", "scenario_io", "source")
NOT_EXPORTED = {"check_efficiency"}  # the parameter classes' shared validator


def _public_definitions(module):
    """Public classes and functions that the module defines itself."""
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == module.__name__}


def test_all_names_resolve_without_duplicates():
    assert sqzbudget.__all__ == sorted(set(sqzbudget.__all__))
    # each name is the object of the module that defines it
    for name in sqzbudget.__all__:
        obj = getattr(sqzbudget, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert obj.__module__.removeprefix("sqzbudget.") in LAYERS, name


def test_every_public_class_and_function_is_listed():
    defined = set().union(*(_public_definitions(importlib.import_module(f"sqzbudget.{layer}"))
                            for layer in LAYERS))
    assert sorted(defined - NOT_EXPORTED) == sqzbudget.__all__
    # the namespace holds no public class or function beyond the list
    public = {
        name for name, obj in vars(sqzbudget).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert public - set(sqzbudget.__all__) == set()


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sqzbudget.no_such_name
    # a public name of a layer module that the list does not export stays out too
    assert not hasattr(sqzbudget, "check_efficiency")
