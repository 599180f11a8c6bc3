"""Package namespace: every library module's public names are re-exported."""

import importlib

import pytest

import truncert

LIBRARY_MODULES = (
    "bounds",
    "fock_algebra",
    "models",
    "propagate",
    "trotter",
    "verify",
    "walk_profiles",
)


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_module_names_are_package_names(module):
    mod = importlib.import_module(f"truncert.{module}")
    for name in mod.__all__:
        assert getattr(truncert, name) is getattr(mod, name)
        assert name in truncert.__all__


def test_package_all_has_no_duplicates():
    assert len(truncert.__all__) == len(set(truncert.__all__))
