"""Each test starts from an empty slot-map cache and empty letter and
word-table caches, so a test that breaks a kernel with ``monkeypatch``
sees that kernel run instead of a map, letters or word tables an earlier
test left in a cache, and leaves nothing broken behind."""

import pytest

from spinchain import dynamics


def _clear_letter_caches():
    dynamics._pair_letters.cache_clear()
    dynamics._pair_words.cache_clear()


@pytest.fixture(autouse=True)
def _cold_slot_map_cache(monkeypatch):
    # a fresh instance of the module's own cache class, so tests of that
    # class (thread safety) still see what the module builds
    monkeypatch.setattr(dynamics, "_PAIR_PROP_CACHE", type(dynamics._PAIR_PROP_CACHE)())
    _clear_letter_caches()
    yield
    _clear_letter_caches()
