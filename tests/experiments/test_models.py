"""Table 1 (E3) and Figure 2 (E4) on their records (``python -m repro
table1`` / ``figure2``).  The scanned paper lost their numbers, so the
claims are the shapes its prose asserts."""


def _table1(record):
    return {row[0]: row[1:] for row in record("table1").tables["table1"].rows}


def _figure2(record):
    return record("figure2").tables["figure2"].rows


class TestTable1:
    def test_rows(self, record):
        assert list(_table1(record)) == [
            "Sequential",
            "Parallel, P = 2",
            "Parallel, P = 4",
            "Parallel, P = 8",
        ]

    def test_speedup_is_positive_sublinear_and_flattens(self, record):
        rows = _table1(record)
        s2, s4, s8 = (rows[f"Parallel, P = {p}"][1] for p in (2, 4, 8))
        assert s2 > 1.0
        assert s4 > s2
        assert s4 < 4.0
        # ... and the shared Ethernet flattens the curve by P = 8.
        assert s8 < s4 * 1.5

    def test_network_is_a_first_order_cost(self, record):
        breakdown = record("table1").values["breakdown_p4"]
        assert breakdown.comm > 0.1 * breakdown.compute

    def test_sequential_time_is_minutes_on_a_workstation(self, record):
        assert 10.0 < _table1(record)["Sequential"][0] < 1000.0


class TestFigure2:
    def test_panels(self, record):
        rec = record("figure2")
        assert rec.tables["figure2"].headers == [
            "Processors",
            "Time actual (s)",
            "Time ideal (s)",
            "Speedup actual",
            "Speedup perfect",
        ]
        assert "* actual   o perfect" in rec.parts[-1]

    def test_time_panel_actual_never_beats_ideal(self, record):
        rows = _figure2(record)
        assert [row[0] for row in rows] == [1, 2, 4, 8, 16, 32]
        for _, actual, ideal, _, _ in rows:
            assert actual >= ideal * 0.999
        times = [row[1] for row in rows]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_speedup_panel_monotone_sublinear_declining_efficiency(self, record):
        rows = _figure2(record)
        speedups = [row[3] for row in rows]
        assert all(b > a for a, b in zip(speedups, speedups[1:]))
        assert all(s <= p for p, _, _, s, _ in rows)
        efficiency = [s / p for p, _, _, s, _ in rows]
        assert efficiency[0] > efficiency[-1]
        assert dict((row[0], row[3]) for row in rows)[16] > 8.0

    def test_sp_outscales_the_suns(self, record):
        # Version A on the SP against Version C on the Suns, both at P = 8.
        sp = dict((row[0], row[3]) for row in _figure2(record))[8]
        assert sp > 2 * _table1(record)["Parallel, P = 8"][1]
