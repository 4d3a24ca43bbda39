"""Data-exchange restriction checking and execution semantics."""

import numpy as np
import pytest

from repro.errors import DataExchangeViolation
from repro.refinement import Assignment, DataExchange, VarRef, make_stores
from repro.refinement.dataexchange import regions_overlap


class TestVarRef:
    def test_describe_whole(self):
        assert VarRef(1, "u").describe() == "P1.u"

    def test_describe_region(self):
        ref = VarRef(0, "u", (slice(2, 5), 3))
        assert ref.describe() == "P0.u[2:5,3]"

    def test_negative_partition_rejected(self):
        with pytest.raises(DataExchangeViolation):
            VarRef(-1, "u")

    def test_stepped_slice_rejected(self):
        with pytest.raises(DataExchangeViolation, match="unit-step"):
            VarRef(0, "u", (slice(0, 10, 2),))

    def test_negative_bound_rejected(self):
        with pytest.raises(DataExchangeViolation, match="negative"):
            VarRef(0, "u", (slice(-3, None),))


class TestRegionOverlap:
    @pytest.mark.parametrize(
        "a,b,shape,expected",
        [
            (None, None, (10,), True),
            ((slice(0, 5),), (slice(5, 10),), (10,), False),
            ((slice(0, 5),), (slice(4, 10),), (10,), True),
            ((slice(0, 5), slice(0, 5)), (slice(0, 5), slice(5, 10)), (10, 10), False),
            ((3,), (slice(0, 3),), (10,), False),
            ((3,), (slice(0, 4),), (10,), True),
            ((slice(None),), (slice(9, 10),), (10,), True),
            # shape caps open slices
            ((slice(5, None),), (slice(0, 5),), (5,), False),
        ],
    )
    def test_cases(self, a, b, shape, expected):
        assert regions_overlap(a, b, shape) is expected
        assert regions_overlap(b, a, shape) is expected  # symmetric


class TestRestrictionI:
    def test_overlapping_targets_rejected(self):
        op = DataExchange(name="bad")
        op.assign(VarRef(0, "u", (slice(0, 3),)), VarRef(1, "u", (slice(0, 3),)))
        op.assign(VarRef(0, "u", (slice(2, 5),)), VarRef(1, "u", (slice(2, 5),)))
        stores = make_stores(2, {"u": np.zeros(10)})
        with pytest.raises(DataExchangeViolation, match=r"\(i\)"):
            op.validate(nprocs=2, stores=stores, require_all_receive=False)

    def test_target_read_by_other_assignment_rejected(self):
        op = DataExchange(name="bad")
        op.assign(VarRef(0, "u", (slice(0, 3),)), VarRef(1, "u", (slice(0, 3),)))
        op.assign(VarRef(1, "v"), VarRef(0, "u", (slice(1, 2),)))
        stores = make_stores(2, {"u": np.zeros(10), "v": np.zeros(1)})
        with pytest.raises(DataExchangeViolation, match="is read"):
            op.validate(nprocs=2, stores=stores, require_all_receive=False)

    def test_disjoint_regions_accepted(self):
        op = DataExchange(name="good")
        op.assign(VarRef(0, "u", (slice(0, 3),)), VarRef(1, "u", (slice(0, 3),)))
        op.assign(VarRef(0, "u", (slice(3, 6),)), VarRef(1, "u", (slice(3, 6),)))
        stores = make_stores(2, {"u": np.zeros(10)})
        op.validate(nprocs=2, stores=stores, require_all_receive=False)

    def test_conservative_without_shapes(self):
        # Without shapes, whole-variable target vs whole-variable source
        # of the same name must be flagged.
        op = DataExchange(name="bad")
        op.assign(VarRef(0, "u"), VarRef(1, "u"))
        op.assign(VarRef(1, "w"), VarRef(0, "u"))
        with pytest.raises(DataExchangeViolation):
            op.validate(nprocs=2, require_all_receive=False)


class TestRestrictionII:
    def test_partition_out_of_range(self):
        op = DataExchange()
        op.assign(VarRef(0, "u"), VarRef(5, "u"))
        with pytest.raises(DataExchangeViolation, match=r"\(ii\)"):
            op.validate(nprocs=2, require_all_receive=False)


class TestRestrictionIII:
    def test_all_receive_required_by_default(self):
        op = DataExchange(name="one-sided")
        op.assign(VarRef(0, "u"), VarRef(1, "u"))
        with pytest.raises(DataExchangeViolation, match=r"\(iii\)"):
            op.validate(nprocs=2)

    def test_participants_narrow_the_rule(self):
        op = DataExchange(name="gather", participants=frozenset({0}))
        op.assign(VarRef(0, "u"), VarRef(1, "u"))
        op.validate(nprocs=2)  # only P0 must receive

    def test_symmetric_exchange_passes(self):
        op = DataExchange(name="swap")
        op.assign(VarRef(0, "a"), VarRef(1, "b"))
        op.assign(VarRef(1, "a"), VarRef(0, "b"))
        op.validate(nprocs=2)


class TestExecution:
    def test_parallel_assignment_semantics(self):
        # A swap through an exchange must read both pre-states.
        stores = make_stores(2, {"x": np.array([0.0])})
        stores[0]["x"][:] = 1.0
        stores[1]["x"][:] = 2.0
        op = DataExchange(name="swap")
        op.assign(VarRef(0, "x"), VarRef(1, "x"))
        op.assign(VarRef(1, "x"), VarRef(0, "x"))
        op.apply(stores)
        assert stores[0]["x"][0] == 2.0
        assert stores[1]["x"][0] == 1.0

    def test_region_copy(self):
        stores = make_stores(2, {"u": np.zeros(6)})
        stores[1]["u"][:] = np.arange(6.0)
        op = DataExchange().assign(
            VarRef(0, "u", (slice(0, 2),)), VarRef(1, "u", (slice(4, 6),))
        )
        op.apply(stores)
        np.testing.assert_array_equal(stores[0]["u"][:2], [4.0, 5.0])
        np.testing.assert_array_equal(stores[0]["u"][2:], np.zeros(4))

    def test_scalar_exchange(self):
        stores = make_stores(2, {"g": 0.0})
        stores[1]["g"] = 42.0
        DataExchange().assign(VarRef(0, "g"), VarRef(1, "g")).apply(stores)
        assert stores[0]["g"] == 42.0


class TestMessageView:
    def make_op(self):
        op = DataExchange(name="mixed")
        op.assign(VarRef(1, "u", (slice(0, 1),)), VarRef(0, "u", (slice(4, 5),)))
        op.assign(VarRef(1, "v"), VarRef(0, "w"))
        op.assign(VarRef(0, "u", (slice(5, 6),)), VarRef(1, "u", (slice(1, 2),)))
        op.assign(VarRef(2, "u", (slice(0, 1),)), VarRef(2, "w"))  # local
        return op

    def test_cross_partition(self):
        assert len(self.make_op().cross_partition()) == 3

    def test_local_assignments(self):
        assert len(self.make_op().local_assignments(2)) == 1
        assert len(self.make_op().local_assignments(0)) == 0

    def test_sends_and_recvs(self):
        op = self.make_op()
        assert [d for d, _ in op.sends_from(0)] == [1, 1]
        assert [s for s, _ in op.recvs_to(0)] == [1]
        assert [d for d, _ in op.sends_from(1)] == [0]

    def test_message_pairs_combining(self):
        # Two P0->P1 assignments combine into one logical pair.
        assert self.make_op().message_pairs() == {(0, 1), (1, 0)}

    def test_describe(self):
        text = self.make_op().describe()
        assert "mixed" in text and "P1.u[0:1] := P0.u[4:5]" in text
