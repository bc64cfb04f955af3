"""The package's public names."""

from __future__ import annotations

import uwb_rtls


def test_every_name_in_all_resolves_once():
    assert len(set(uwb_rtls.__all__)) == len(uwb_rtls.__all__)
    missing = [name for name in uwb_rtls.__all__ if not hasattr(uwb_rtls, name)]
    assert missing == []


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from uwb_rtls import *", namespace)  # raises if a listed name is gone
    assert set(uwb_rtls.__all__) <= set(namespace)
