"""Tests for the package's public surface."""

import types

import spinchain


def test_exports_are_exactly_the_public_names():
    exported = spinchain.__all__
    assert len(set(exported)) == len(exported)
    public = {
        name
        for name, value in vars(spinchain).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
