"""The package's exports: a name deleted from a module must leave `__all__` too."""

from collections import Counter

import qiprune


def test_every_export_is_listed_once_and_resolves():
    assert [name for name, n in Counter(qiprune.__all__).items() if n > 1] == []
    assert [name for name in qiprune.__all__ if not hasattr(qiprune, name)] == []
