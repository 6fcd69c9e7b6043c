"""Each test starts from an empty slot-map cache, an empty letter cache
(keyed by gate kind and noise model) and an empty word-table cache (keyed
by gate kind and noise kind, so shared by every rate), so a test that
breaks a kernel with ``monkeypatch`` sees that kernel run instead of a
map, letters or word tables an earlier test left in a cache, at any
rate, and leaves nothing broken behind."""

import pytest

from spinchain import dynamics


def _clear_letter_caches():
    dynamics._pair_letters.cache_clear()
    dynamics._pair_words.cache_clear()


@pytest.fixture(autouse=True)
def _cold_slot_map_cache(monkeypatch):
    monkeypatch.setattr(dynamics, "_PAIR_PROP_CACHE", {})
    _clear_letter_caches()
    yield
    _clear_letter_caches()
