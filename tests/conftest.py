"""Each test starts from an empty slot-map cache and an empty word-table
cache (keyed by gate kind and noise kind, so shared by every rate), so a
test that breaks a kernel with ``monkeypatch`` sees that kernel run
instead of a map, letters or word tables an earlier test left in a
cache, and leaves nothing broken behind.

Property tests draw the same examples on every run and keep no example
database, so a verdict never depends on an earlier run.
``--hypothesis-profile default`` explores new examples instead."""

import pytest
from hypothesis import settings

from spinchain import dynamics

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def _cold_slot_map_cache(monkeypatch):
    monkeypatch.setattr(dynamics, "_PAIR_PROP_CACHE", {})
    dynamics._pair_words.cache_clear()
    yield
    dynamics._pair_words.cache_clear()
