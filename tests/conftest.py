"""Each test starts from an empty slot-map cache, so a test that breaks a
kernel with ``monkeypatch`` sees that kernel run instead of a map an
earlier test left in the cache."""

import pytest

from spinchain import dynamics


@pytest.fixture(autouse=True)
def _cold_slot_map_cache(monkeypatch):
    # a fresh instance of the module's own cache class, so tests of that
    # class (thread safety) still see what the module builds
    monkeypatch.setattr(dynamics, "_PAIR_PROP_CACHE", type(dynamics._PAIR_PROP_CACHE)())
