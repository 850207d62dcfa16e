"""The package's public export list."""

import lanetopo


def test_every_exported_name_resolves():
    assert len(set(lanetopo.__all__)) == len(lanetopo.__all__)
    missing = [name for name in lanetopo.__all__ if not hasattr(lanetopo, name)]
    assert missing == []
    namespace: dict = {}
    exec("from lanetopo import *", namespace)
    assert set(lanetopo.__all__) <= namespace.keys()
