"""Each test starts from an empty slot-map cache and an empty letter
cache, so a test that breaks a kernel with ``monkeypatch`` sees that
kernel run instead of a map or letters an earlier test left in a cache,
and leaves no broken letters behind."""

import pytest

from spinchain import dynamics


@pytest.fixture(autouse=True)
def _cold_slot_map_cache(monkeypatch):
    # a fresh instance of the module's own cache class, so tests of that
    # class (thread safety) still see what the module builds
    monkeypatch.setattr(dynamics, "_PAIR_PROP_CACHE", type(dynamics._PAIR_PROP_CACHE)())
    dynamics._pair_letters.cache_clear()
    yield
    dynamics._pair_letters.cache_clear()
