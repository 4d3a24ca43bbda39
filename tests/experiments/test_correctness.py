"""E1 and E2, §4.5's two correctness findings, on their records
(``python -m repro e1`` / ``e2``)."""

GRIDS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]


class TestE1NearField:
    def test_every_grid_identical_both_ways(self, record):
        rec = record("e1")
        rows = rec.tables["grids"].rows
        assert [row[0] for row in rows] == GRIDS + [(3, 2, 1)]
        # simulated-parallel vs sequential, message passing vs simulated
        assert all(row[1:] == ["identical", "identical"] for row in rows)
        assert rec.ok

    def test_message_passing_runs_on_threads(self, record):
        assert record("e1").parts[0] == "message-passing engine: threaded\n"


class TestE2FarField:
    def test_near_field_identical_far_field_reordered(self, record):
        rows = record("e2").tables["grids"].rows
        assert [row[0] for row in rows] == GRIDS
        assert all(row[1] == "identical" for row in rows)
        # One process sums in the sequential order; more reorder it.
        assert rows[0][2] == "identical"
        assert all(row[2].startswith("differs (max rel ") for row in rows[1:])
        assert record("e2").ok

    def test_reordered_sums_are_close_as_reals(self, record):
        values = record("e2").values
        assert all(values["close_as_reals"].values())
        assert values["max_rel"][(1, 1, 1)] == 0.0
        assert all(values["max_rel"][p] > 0.0 for p in GRIDS[1:])

    def test_summands_span_many_orders_of_magnitude(self, record):
        # footnote 2 (the sample is the nonzero bins, so there are some)
        assert record("e2").values["dynamic_range"].orders_of_magnitude > 6.0

    def test_partition_count_changes_the_float_sum(self, record):
        report = record("e2").values["reordering"]
        assert len(set(report.by_parts.values())) > 1

    def test_compensated_summation_restores_reproducibility(self, record):
        report = record("e2").values["reordering"]
        assert report.max_kahan_discrepancy() < report.max_reordering_discrepancy()
