"""The package's public names."""

import nearcolor


def test_every_export_resolves_and_star_import_works():
    assert len(set(nearcolor.__all__)) == len(nearcolor.__all__)
    missing = [name for name in nearcolor.__all__ if not hasattr(nearcolor, name)]
    assert not missing
    namespace: dict = {}
    exec("from nearcolor import *", namespace)
    assert set(nearcolor.__all__) <= set(namespace)
