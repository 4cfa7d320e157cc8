"""The package root re-exports its public names unchanged.

Importing a submodule binds it on the package, so a submodule that shares a
name with a function (``render``) could shadow the function. Every name in
``datacardkit.__all__`` must be the very object its defining module holds,
after the command line has imported everything it needs.
"""

import importlib

import pytest

import datacardkit.cli  # noqa: F401  (imported first on purpose)
import datacardkit


@pytest.mark.parametrize("name", datacardkit.__all__)
def test_public_name_is_the_defining_modules_object(name):
    obj = getattr(datacardkit, name)
    module = importlib.import_module(obj.__module__)
    assert module.__name__.startswith("datacardkit.")
    assert getattr(module, name) is obj
