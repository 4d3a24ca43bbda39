"""AddressSpace tests."""

import numpy as np
import pytest

from repro.errors import StoreError
from repro.refinement import AddressSpace, make_stores


class TestDeclarationDiscipline:
    def test_read_unknown_raises(self):
        space = AddressSpace({"x": 1})
        with pytest.raises(StoreError, match="unknown variable 'y'"):
            space["y"]

    def test_assign_undeclared_raises(self):
        space = AddressSpace()
        with pytest.raises(StoreError, match="undeclared"):
            space["x"] = 5

    def test_contains_iter_len(self):
        space = AddressSpace({"a": 1, "b": 2})
        assert "a" in space and "c" not in space
        assert sorted(space) == ["a", "b"]
        assert len(space) == 2


class TestAssignmentCompatibility:
    """Array-into-array assignment must not silently broadcast or
    down-cast — both are how a wrong decomposition hides."""

    def test_shape_mismatch_raises(self):
        space = AddressSpace({"x": np.zeros((4, 4))}, owner=3)
        with pytest.raises(StoreError, match="shape mismatch.*owner 3"):
            space["x"] = np.zeros(4)  # would broadcast by replication

    def test_unsafe_dtype_raises(self):
        space = AddressSpace({"x": np.zeros(4, dtype=np.float32)})
        with pytest.raises(StoreError, match="dtype mismatch"):
            space["x"] = np.zeros(4, dtype=np.float64)  # would truncate

    def test_safe_upcast_allowed(self):
        space = AddressSpace({"x": np.zeros(4, dtype=np.float64)})
        space["x"] = np.zeros(4, dtype=np.float32)  # widening is safe

    def test_length_one_axes_ignored(self):
        space = AddressSpace({"x": np.zeros((1, 3))})
        space["x"] = np.zeros(3)  # assignment, not broadcasting

    def test_exact_match_allowed(self):
        space = AddressSpace({"x": np.zeros((2, 3))})
        space["x"] = np.ones((2, 3))
        assert space["x"].sum() == 6.0

    def test_scalar_replacement_unchecked(self):
        space = AddressSpace({"x": 1.0})
        space["x"] = np.arange(3.0)  # scalar -> array is a (re)definition
        space["x"] = 2.5  # and back


class TestRegions:
    def test_read_region_is_a_copy(self):
        arr = np.arange(10.0)
        space = AddressSpace({"x": arr})
        part = space.read_region("x", (slice(2, 5),))
        part[:] = -1
        assert arr[2] == 2.0

    def test_read_whole_is_a_copy(self):
        arr = np.arange(4.0)
        space = AddressSpace({"x": arr})
        whole = space.read_region("x", None)
        whole[:] = 0
        assert arr[1] == 1.0

    def test_write_region(self):
        space = AddressSpace({"x": np.zeros((3, 3))})
        space.write_region("x", (slice(0, 1), slice(None)), np.ones(3))
        np.testing.assert_array_equal(space["x"][0], np.ones(3))
        assert space["x"][1:].sum() == 0

    def test_write_whole_preserves_identity(self):
        arr = np.zeros(4)
        space = AddressSpace({"x": arr})
        space.write_region("x", None, np.arange(4.0))
        assert space["x"] is arr  # in-place, view-friendly
        np.testing.assert_array_equal(arr, np.arange(4.0))

    def test_write_whole_shape_mismatch(self):
        space = AddressSpace({"x": np.zeros(4)})
        with pytest.raises(StoreError, match="shape mismatch"):
            space.write_region("x", None, np.zeros(5))

    def test_write_region_to_scalar_raises(self):
        space = AddressSpace({"x": 3.0})
        with pytest.raises(StoreError, match="non-array"):
            space.write_region("x", (slice(0, 1),), 1.0)

    def test_scalar_whole_write(self):
        space = AddressSpace({"x": 3.0})
        space.write_region("x", None, 7.0)
        assert space["x"] == 7.0


class TestSnapshotsAndFactories:
    def test_snapshot_is_deep(self):
        space = AddressSpace({"x": np.zeros(3)})
        snap = space.snapshot()
        space["x"][0] = 9
        assert snap["x"][0] == 0

    def test_make_stores_duplicates_initial(self):
        stores = make_stores(3, {"g": np.arange(4.0)})
        assert len(stores) == 3
        stores[0]["g"][0] = 99
        assert stores[1]["g"][0] == 0.0  # independent copies
        assert [s.owner for s in stores] == [0, 1, 2]

    def test_wrap_shares_dict(self):
        raw = {"x": 1}
        space = AddressSpace.wrap(raw, owner=2)
        space["x"] = 5
        assert raw["x"] == 5
        assert space.owner == 2


class TestConstants:
    """A read-only array is a constant: assignment is a StoreError that
    names the variable and its owner, not NumPy's bare ValueError."""

    def space(self):
        c = np.arange(6.0)
        c.flags.writeable = False
        return AddressSpace({"c": c, "v": np.zeros(6)}, owner=3), c

    def test_setitem_raises_naming_variable_and_owner(self):
        space, c = self.space()
        with pytest.raises(StoreError, match=r"constant 'c' \(owner 3\)"):
            space["c"] = np.ones(6)
        assert space["c"] is c

    @pytest.mark.parametrize("region", [None, (slice(1, 3),)])
    def test_write_region_raises_naming_variable_and_owner(self, region):
        space, c = self.space()
        value = np.ones(6 if region is None else 2)
        with pytest.raises(StoreError, match=r"constant 'c' \(owner 3\)"):
            space.write_region("c", region, value)
        assert (c == np.arange(6.0)).all()

    def test_reads_and_variables_are_unaffected(self):
        space, c = self.space()
        assert (space.read_region("c", (slice(0, 2),)) == c[:2]).all()
        assert space.read_region("c", None).flags.writeable  # a copy
        space.write_region("v", (slice(0, 2),), np.ones(2))
        space["v"] = np.full(6, 2.0)
        assert (space["v"] == 2.0).all()

    def test_make_stores_shares_constants_and_copies_variables(self):
        _space, c = self.space()
        v = np.zeros(3)
        spaces = make_stores(3, {"c": c, "v": v})
        assert all(s["c"] is c for s in spaces)
        assert len({id(s["v"]) for s in spaces} | {id(v)}) == 4
