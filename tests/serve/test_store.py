"""ArtifactStore: addressing, durability, corruption, schema versioning.

The concurrency tests fork real writer processes against one store root
— they assert the atomic-publish discipline (a reader sees a complete
entry from *some* writer or a miss, never torn bytes), which is the
property the worker pool's cross-process reuse stands on.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from fractions import Fraction

import pytest

from repro.serve.store import (
    _CORRUPT,
    _MAGIC,
    SCHEMA_VERSION,
    ArtifactStore,
    canonical_key,
)

KEY = ("derive", "fp:abc", (("block", (("factor", 4),)),), ())


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(str(tmp_path / "cache"))


class TestAddressing:
    def test_roundtrip_hit(self, store):
        store.put(KEY, {"fingerprint": "abc", "ir": "DO I = 1, N"})
        hit, value = store.get(KEY)
        assert hit
        assert value == {"fingerprint": "abc", "ir": "DO I = 1, N"}
        assert (store.hits, store.misses, store.writes) == (1, 0, 1)

    def test_absent_key_is_a_miss(self, store):
        hit, value = store.get(KEY)
        assert (hit, value) == (False, None)
        assert store.misses == 1

    def test_stored_none_is_distinct_from_a_miss(self, store):
        store.put(KEY, None)
        assert store.get(KEY) == (True, None)

    def test_digest_ignores_dict_order(self, store):
        a = {"unroll": 2, "factor": 4}
        b = {"factor": 4, "unroll": 2}
        assert canonical_key(a) == canonical_key(b)
        assert store.digest(("k", a)) == store.digest(("k", b))

    def test_digest_distinguishes_values(self, store):
        assert store.digest(("k", 1)) != store.digest(("k", 2))

    def test_fraction_coefficients_canonicalize(self, store):
        # Assumptions.facts_key() carries Fraction Affine coefficients
        key = ("ctx", (("N", Fraction(1, 2)),))
        store.put(key, "v")
        assert store.get(key) == (True, "v")

    @pytest.mark.parametrize("workload, digest", [
        ("lu_nopivot", "22bfb3f1264be4a8d564b56cba9506dde04998d7bd36d90169683486720c3b88"),
        ("matmul", "2b5948b00ed57da6a4e0c058b78d46c3baf2a50f003791179d9980d514ef1167"),
        ("givens", "0dfa930632c5b4837741d5ca0281e856b9a7a1452bb1b3f1e6d7ec8216e250bc"),
    ])
    def test_derive_job_addresses_are_pinned(self, store, workload, digest):
        # existing .repro-cache entries must keep hitting: the context
        # facts in the key render exactly as they always have
        from repro.serve.jobs import JobSpec, job_key

        assert store.digest(job_key(JobSpec(kind="derive", workload=workload))) == digest

    def test_uncanonicalizable_key_raises(self, store):
        with pytest.raises(TypeError, match="cannot canonicalize"):
            store.digest(("k", object()))

    def test_entry_lives_under_two_char_fanout(self, store):
        path = store.put(KEY, "v")
        digest = store.digest(KEY)
        assert path.parent.name == digest[:2]
        assert path.name == digest + ".art"

    def test_env_var_names_the_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
        assert ArtifactStore().root == tmp_path / "env-root"


class TestCorruption:
    def test_truncated_entry_is_a_miss_and_reaped(self, store):
        path = store.put(KEY, {"big": "x" * 4096})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # simulate a torn write
        assert store.get(KEY) == (False, None)
        assert store.corrupt == 1
        assert not path.exists()  # bad entry unlinked, cannot fail twice
        # a recompute-and-put makes the key serve hits again
        store.put(KEY, {"big": "y"})
        assert store.get(KEY) == (True, {"big": "y"})

    def test_garbage_file_is_a_miss(self, store):
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x00\xffnot an artifact")
        assert store.get(KEY) == (False, None)
        assert store.corrupt == 1

    def test_bitflip_in_body_fails_the_checksum(self, store):
        path = store.put(KEY, {"v": 123456})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x40
        path.write_bytes(bytes(blob))
        assert store.get(KEY) == (False, None)
        assert store.corrupt == 1

    def test_magic_only_header_is_a_miss(self, store):
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(_MAGIC)
        assert store.get(KEY) == (False, None)

    def test_decode_rejects_an_entry_filed_under_the_wrong_key(self, store):
        blob = store.put(KEY, "v").read_bytes()
        assert store._decode(blob, ("some", "other", "key")) is _CORRUPT

    def test_unpicklable_body_is_corrupt_not_a_crash(self, store):
        path = store.put(KEY, "v")
        blob = path.read_bytes()
        body = b"\x80\x04not really a pickle"
        import hashlib

        checksum = hashlib.sha256(body).hexdigest().encode("ascii")
        path.write_bytes(_MAGIC + checksum + b"\n" + body)
        assert store.get(KEY) == (False, None)
        assert store.corrupt == 1


class TestSchemaVersioning:
    def test_bump_invalidates_without_touching_files(self, store):
        store.put(KEY, "old")
        bumped = ArtifactStore(str(store.root), schema_version=SCHEMA_VERSION + 1)
        assert bumped.get(KEY) == (False, None)  # orphaned, not corrupted
        assert bumped.corrupt == 0
        assert store.get(KEY) == (True, "old")  # v1 reader still fine
        bumped.put(KEY, "new")
        assert bumped.get(KEY) == (True, "new")
        assert store.stats()["entries"] == 2  # both generations on disk

    def test_version_skew_on_the_same_path_reads_corrupt(self, store):
        # even if digests collided across versions, _decode re-checks the
        # version recorded inside the entry
        path = store.put(KEY, "old")
        bumped = ArtifactStore(str(store.root), schema_version=SCHEMA_VERSION + 1)
        assert bumped._decode(path.read_bytes(), KEY) is _CORRUPT


class TestMaintenance:
    def put_n(self, store, n):
        for i in range(n):
            store.put(("k", i), i)
            time.sleep(0.01)  # distinct mtimes for age ordering

    def test_stats_reports_counters_and_disk(self, store):
        store.put(KEY, "v")
        store.get(KEY)
        store.get(("absent",))
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["writes"] == 1
        assert stats["corrupt"] == 0
        assert stats["entries"] == 1
        assert stats["bytes"] > len(_MAGIC)
        assert stats["schema_version"] == SCHEMA_VERSION

    def test_gc_by_count_evicts_oldest_first(self, store):
        self.put_n(store, 4)
        summary = store.gc(max_entries=2)
        assert summary == {"removed": 2, "kept": 2}
        assert store.get(("k", 0)) == (False, None)
        assert store.get(("k", 3)) == (True, 3)

    def test_gc_by_age(self, store):
        self.put_n(store, 2)
        time.sleep(0.05)
        store.put(("young",), "y")
        summary = store.gc(max_age_s=0.04)
        assert summary["removed"] == 2
        assert store.get(("young",)) == (True, "y")

    def test_gc_without_limits_is_a_no_op(self, store):
        self.put_n(store, 2)
        assert store.gc() == {"removed": 0, "kept": 2}

    def test_clear_removes_everything(self, store):
        self.put_n(store, 3)
        assert store.clear() == 3
        assert store.stats()["entries"] == 0

    def test_tmp_files_are_invisible_to_entries(self, store):
        store.put(KEY, "v")
        junk = store.path_for(KEY).parent / ".tmp-leftover.art"
        junk.write_bytes(b"partial")
        assert store.stats()["entries"] == 1


class TestScan:
    def test_scan_yields_canonical_key_and_value(self, store):
        store.put(KEY, {"ir": "DO I = 1, N"})
        store.put(("other", 1), "v2")
        entries = dict(store.scan())
        assert entries[canonical_key(KEY)] == {"ir": "DO I = 1, N"}
        assert entries[canonical_key(("other", 1))] == "v2"

    def test_scan_skips_corrupt_without_unlinking(self, store):
        store.put(KEY, "good")
        store.put(("bad",), "junk")
        bad_path = store.path_for(("bad",))
        blob = bytearray(bad_path.read_bytes())
        blob[-1] ^= 0xFF
        bad_path.write_bytes(bytes(blob))
        entries = list(store.scan())
        assert [v for _, v in entries] == ["good"]
        assert store.corrupt == 1
        assert bad_path.exists()  # scan never reaps — get() does

    def test_scan_skips_other_schema_versions(self, store):
        store.put(KEY, "v")
        bumped = ArtifactStore(str(store.root),
                               schema_version=SCHEMA_VERSION + 1)
        assert list(bumped.scan()) == []


class TestObsIntegration:
    def test_counters_and_spans_land_in_an_enabled_obs(self, store):
        from repro.obs import core as obs_core

        with obs_core.enabled() as o:
            store.put(KEY, "v")
            store.get(KEY)           # hit
            store.get(("absent",))   # miss
        assert o.counters["store.writes"] == 1
        assert o.counters["store.hits"] == 1
        assert o.counters["store.misses"] == 1
        names = {s.name for s in o.spans}
        assert {"store:get", "store:put"} <= names
        hits = [s.args.get("hit") for s in o.spans if s.name == "store:get"]
        assert sorted(hits) == [False, True]

    def test_disabled_obs_is_a_no_op(self, store):
        store.put(KEY, "v")
        assert store.get(KEY) == (True, "v")  # no observer, no crash


# --- concurrency -----------------------------------------------------------

def _hammer_writer(root: str, seed: int, rounds: int) -> None:
    store = ArtifactStore(root)
    for i in range(rounds):
        store.put(KEY, {"writer": seed, "round": i, "pad": "x" * 2048})


def test_concurrent_writers_never_produce_a_torn_read(tmp_path):
    """N writers race on one key while the parent reads continuously:
    every read must be a miss or a complete entry from some writer."""
    root = str(tmp_path / "cache")
    ctx = multiprocessing.get_context("fork")
    writers = [
        ctx.Process(target=_hammer_writer, args=(root, seed, 25))
        for seed in range(3)
    ]
    for w in writers:
        w.start()
    reader = ArtifactStore(root)
    observed = 0
    while any(w.is_alive() for w in writers):
        hit, value = reader.get(KEY)
        if hit:
            observed += 1
            assert set(value) == {"writer", "round", "pad"}
            assert value["writer"] in (0, 1, 2)
    for w in writers:
        w.join()
        assert w.exitcode == 0
    assert reader.corrupt == 0  # atomicity: no torn entry was ever visible
    assert observed > 0
    # last-writer-wins: the surviving entry is one writer's final state
    hit, value = reader.get(KEY)
    assert hit and value["round"] == 24


def test_interrupted_put_leaves_no_partial_entry(tmp_path, monkeypatch):
    """A crash mid-serialization must not publish anything."""
    store = ArtifactStore(str(tmp_path / "cache"))

    def explode(*a, **k):
        raise OSError("disk full")

    real_replace = os.replace
    monkeypatch.setattr(os, "replace", explode)
    with pytest.raises(OSError):
        store.put(KEY, "v")
    monkeypatch.setattr(os, "replace", real_replace)
    assert store.get(KEY) == (False, None)
    assert store.corrupt == 0
    assert store.stats()["entries"] == 0  # and no temp debris counted
