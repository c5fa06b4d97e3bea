"""The package namespace and ``__all__`` stay in step."""

import inspect

import sqzbudget


def test_all_names_resolve_without_duplicates():
    assert len(set(sqzbudget.__all__)) == len(sqzbudget.__all__)
    for name in sqzbudget.__all__:
        assert hasattr(sqzbudget, name), name


def test_every_public_class_and_function_is_listed():
    public = {
        name for name, obj in vars(sqzbudget).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert public - set(sqzbudget.__all__) == set()
