"""The package's public export list."""

import spadevents


def test_every_exported_name_resolves():
    assert len(set(spadevents.__all__)) == len(spadevents.__all__)
    assert [name for name in spadevents.__all__ if not hasattr(spadevents, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from spadevents import *", namespace)
    assert set(spadevents.__all__) <= set(namespace)
