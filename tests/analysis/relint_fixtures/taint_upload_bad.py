"""Fixture: the registry sinks — PSP upload, cache key, stats payload."""

import json


def make_key() -> bytes:  # taint: source(secret)
    return b"k" * 16


def publish(psp: PSPBackend):  # noqa: F821 (annotation names the type)
    key = make_key()
    psp.upload(key, owner="alice")


def cache_by_raw_key(cache: PartitionedLRUCache):  # noqa: F821
    key = make_key()
    cache.put(key, b"payload")


def stats_payload():
    key = make_key()
    return json.dumps({"key": key.hex()})
