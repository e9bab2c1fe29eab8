"""The package root's ``__all__`` names exactly what it exports."""

import augdist


def test_all_is_sorted_without_duplicates():
    assert augdist.__all__ == sorted(set(augdist.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in augdist.__all__ if not hasattr(augdist, name)]
    assert missing == []


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from augdist import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(augdist.__all__)
