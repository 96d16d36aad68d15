"""The package namespace."""

import types

import cpfq


def test_all_exports_only_public_names():
    for name in cpfq.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(cpfq, name), types.ModuleType), name
