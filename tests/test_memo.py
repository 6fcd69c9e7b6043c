"""Tests for the build-once memo behind the pair-propagator cache."""

import sys
import threading
import time

import pytest

from spinchain.memo import BuildOnce


def run_threads(targets, timeout=10.0):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    assert not any(t.is_alive() for t in threads)


def test_concurrent_misses_on_one_key_build_once():
    # more threads than cores and a short switch interval, so a
    # check-then-build race would show as a second build
    cache = BuildOnce()
    calls = []
    barrier = threading.Barrier(8)
    results = []

    def build():
        calls.append(1)
        time.sleep(0.05)
        return object()

    def worker():
        barrier.wait(timeout=5)
        results.append(cache.get("key", build))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_threads([worker] * 8)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1
    assert len(results) == 8 and all(r is results[0] for r in results)


def test_failed_build_stores_nothing():
    cache = BuildOnce()

    def broken():
        raise RuntimeError("no value")

    with pytest.raises(RuntimeError):
        cache.get("key", broken)
    assert cache.get("key", lambda: 1) == 1
    assert cache.get("key", lambda: 2) == 1


def test_concurrent_rows_build_each_missing_key_once():
    # overlapping rows from many threads: each key is built by one row
    # only, a key a build leaves out stays missing, and repeats are asked once
    cache = BuildOnce()
    built = []
    barrier = threading.Barrier(8)

    def build(keys):
        built.extend(keys)
        time.sleep(0.01)
        return {key: ("value", key) for key in keys if key != 3}

    def worker(row):
        barrier.wait(timeout=5)
        cache.build_many(row, build)

    rows = [[i % 4, (i + 1) % 4, i % 4, 4 + i] for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_threads([lambda row=row: worker(row) for row in rows])
    finally:
        sys.setswitchinterval(interval)
    assert sorted(k for k in built if k != 3) == [0, 1, 2] + list(range(4, 12))
    assert all(cache.get(key, lambda: None) == ("value", key) for key in [0, 1, 2, *range(4, 12)])
    assert cache.get(3, lambda: "built alone") == "built alone"
