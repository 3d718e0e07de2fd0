"""The package's public names: every name ``fspm.__all__`` lists exists, once."""
from collections import Counter

import fspm


def test_every_public_name_resolves():
    assert [name for name in fspm.__all__ if not hasattr(fspm, name)] == []


def test_no_public_name_listed_twice():
    assert [name for name, n in Counter(fspm.__all__).items() if n > 1] == []
