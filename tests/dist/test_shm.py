"""Shared-memory store arena: share/attach/flush/readback and cleanup."""

import numpy as np
import pytest

from repro.dist import shm
from repro.dist.shm import (
    SharedStoreArena,
    attach_store,
    close_handles,
    flush_store,
    live_segment_names,
)
from repro.util import bitwise_equal_arrays


@pytest.fixture
def arena():
    a = SharedStoreArena()
    yield a
    a.cleanup()
    assert live_segment_names() == frozenset()


def big(value, shape=(64,)):
    return np.full(shape, float(value))  # 512 B — above the threshold


def share_one(arena, arr):
    """One array through ``share_store``: the name of the run pack it
    landed in and its plan."""
    plan, _rest = arena.share_store({"u": arr})
    return plan["u"][0], plan


class TestShareStore:
    def test_split_by_threshold(self, arena):
        store = {"field": big(1.0), "tiny": np.zeros(2), "n": 7, "s": "x"}
        plan, rest = arena.share_store(store)
        assert set(plan) == {"field"}
        assert set(rest) == {"tiny", "n", "s"}

    def test_non_numeric_arrays_stay_out(self, arena):
        store = {"objs": np.array([{"a": 1}] * 100, dtype=object)}
        plan, rest = arena.share_store(store)
        assert plan == {} and set(rest) == {"objs"}

    def test_share_copies_values_bitwise(self, arena):
        arr = np.linspace(0.0, 1.0, 80)
        plan, _ = arena.share_store({"u": arr})
        assert bitwise_equal_arrays(arena.readback(plan)["u"], arr)

    def test_non_contiguous_input(self, arena):
        arr = np.arange(128.0).reshape(8, 16)[::2]
        plan, _ = arena.share_store({"u": arr})
        assert bitwise_equal_arrays(arena.readback(plan)["u"], arr)


class TestAttachFlushReadback:
    def test_in_place_mutation_visible_at_readback(self, arena):
        plan, rest = arena.share_store({"u": big(0.0), "k": 3})
        store, handles = attach_store(plan, rest)
        store["u"][...] = 42.0
        overrides = flush_store(store, handles)
        close_handles(handles)
        assert overrides == {"k": 3}
        assert (arena.readback(plan)["u"] == 42.0).all()

    def test_same_shape_rebind_copied_back(self, arena):
        plan, rest = arena.share_store({"u": big(0.0)})
        store, handles = attach_store(plan, rest)
        store["u"] = big(7.0)  # rebinding, not in-place mutation
        overrides = flush_store(store, handles)
        close_handles(handles)
        assert overrides == {}
        assert (arena.readback(plan)["u"] == 7.0).all()

    def test_incompatible_rebind_becomes_override(self, arena):
        plan, rest = arena.share_store({"u": big(0.0)})
        store, handles = attach_store(plan, rest)
        store["u"] = np.zeros((3, 3))
        overrides = flush_store(store, handles)
        close_handles(handles)
        assert set(overrides) == {"u"} and overrides["u"].shape == (3, 3)

    def test_rest_entries_are_stored_as_received(self, arena):
        # ``rest`` reaches attach_store freshly unpickled (pool worker)
        # or freshly decoded (daemon): nothing else refers to it, so it
        # is not copied a second time.
        payload = {"nested": [1, 2]}
        plan, rest = arena.share_store({"cfg": payload})
        store, handles = attach_store(plan, rest)
        close_handles(handles)
        assert store["cfg"] is payload


class TestLifecycle:
    def test_cleanup_is_idempotent(self):
        arena = SharedStoreArena()
        arena.share_store({"u": big(1.0)})
        assert len(live_segment_names()) == 1
        arena.cleanup()
        arena.cleanup()
        assert live_segment_names() == frozenset()

    def test_segment_names_are_namespaced(self, arena):
        name, _plan = share_one(arena, big(1.0))
        assert name.startswith("repro_")

    def test_shareable_threshold_is_configurable(self):
        arena = SharedStoreArena()
        try:
            plan, rest = arena.share_store({"t": np.zeros(2)}, threshold=1)
            assert set(plan) == {"t"} and rest == {}
        finally:
            arena.cleanup()

    def test_module_registry_tracks_this_process_only(self):
        assert isinstance(shm.live_segment_names(), frozenset)


class TestRecycling:
    def test_recycle_reuses_same_size_segment(self):
        arena = SharedStoreArena()
        try:
            name1, _ = share_one(arena, big(1.0))
            arena.recycle()
            name2, _ = share_one(arena, big(2.0))
            assert name2 == name1  # same segment, served from the free list
            assert arena.recycled == 1
            plan = {"u": (name2, 0, "<f8", (64,), False)}
            assert (arena.readback(plan)["u"] == 2.0).all()
        finally:
            arena.cleanup()

    def test_recycle_keeps_segments_owned(self):
        arena = SharedStoreArena()
        try:
            share_one(arena, big(1.0))
            arena.recycle()
            # Parked segments still belong to this process: they must
            # stay registered so cleanup() can unlink them.
            assert len(live_segment_names()) == 1
        finally:
            arena.cleanup()
        assert live_segment_names() == frozenset()

    def test_different_size_is_not_recycled(self):
        arena = SharedStoreArena()
        try:
            name1, _ = share_one(arena, big(1.0, shape=(64,)))
            arena.recycle()
            name2, _ = share_one(arena, np.zeros(4096))
            assert name2 != name1
            assert arena.recycled == 0
        finally:
            arena.cleanup()

    def test_cleanup_after_recycle_unlinks_everything(self):
        arena = SharedStoreArena()
        share_one(arena, big(1.0))
        share_one(arena, big(2.0, shape=(128,)))
        arena.recycle()
        share_one(arena, big(3.0))  # one recycled, one still parked
        arena.cleanup()
        assert live_segment_names() == frozenset()
