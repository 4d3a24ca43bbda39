"""Ablations A1-A4 on the ``python -m repro ablations`` record.  A5 (one
reduction through each archetype, the pipeline model's crossover) is
checked by ``tests/archetypes/test_divide_conquer.py``,
``tests/archetypes/test_pipeline.py`` and ``examples/archetype_gallery.py``."""


def _rows(record, name):
    return record("ablations").tables[name].rows


class TestA1Ordering:
    def test_two_rank_exchange(self, record):
        parts = record("ablations").parts
        assert "  recv-first: DEADLOCK as predicted (2 blocked)" in parts

    def test_recv_first_all_pairs_is_a_circular_wait(self, record):
        diagnosis = record("ablations").values["a1"]["diagnosis"]
        assert diagnosis.startswith("deadlock diagnosis:")
        assert "circular wait" in diagnosis

    def test_sends_first_completes_under_every_schedule(self, record):
        a1 = record("ablations").values["a1"]
        # every rank received exactly one value from every other ...
        assert a1["received"] is True
        # ... at the same traffic: one message on each channel
        assert a1["one_message_per_channel"] is True


class TestA2Reduction:
    def test_substrate_counts_equal_the_model(self, record):
        modeled = {row[0]: (row[1], row[3]) for row in _rows(record, "a2")}
        measured = _rows(record, "a2_substrate")
        assert [row[0] for row in measured] == [4, 8]
        for p, a2o, rd, _ in measured:
            assert (a2o, rd) == modeled[p]
        # recursive doubling moves more messages in total
        assert all(rd > a2o > 0 for _, a2o, rd, _ in measured)

    def test_every_rank_gets_the_sum_both_ways(self, record):
        for p, _, _, total in _rows(record, "a2_substrate"):
            assert total == sum(1.0 + r * 0.25 for r in range(p))

    def test_recursive_doubling_wins_from_eight_ranks(self, record):
        for p, _, a2o_ms, _, rd_ms in _rows(record, "a2"):
            if p >= 8:
                assert rd_ms < a2o_ms
        assert record("ablations").values["a2_crossover"] is True


class TestA3Decomposition:
    def test_block_beats_pencil_beats_slab(self, record):
        kb = {pshape: b for pshape, _, b in _rows(record, "a3")}
        assert kb[(2, 2, 2)] < kb[(4, 2, 1)] < kb[(8, 1, 1)]

    def test_chooser_picks_the_least_traffic(self, record):
        chosen = record("ablations").values["a3_chosen"]
        least = min(_rows(record, "a3"), key=lambda row: row[2])[0]
        assert sorted(chosen) == sorted(least)


class TestA4GhostWidth:
    def test_identical_fields(self, record):
        assert record("ablations").values["a4_identical"] is True

    def test_fewer_messages_at_equal_bytes(self, record):
        rows = _rows(record, "a4")
        assert [row[0] for row in rows] == [1, 2, 3]
        messages = [row[2] for row in rows]
        assert messages[0] == 2 * messages[1] == 3 * messages[2]
        assert len({row[3] for row in rows}) == 1

    def test_modeled_time_falls_with_ghost_width(self, record):
        ms = [row[4] for row in _rows(record, "a4")]
        assert ms[2] < ms[1] < ms[0]
        assert record("ablations").ok
