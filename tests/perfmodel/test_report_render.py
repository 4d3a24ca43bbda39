"""Report rendering (ascii_curve, tables) unit coverage."""

import pytest

from repro.perfmodel.report import ascii_curve, figure2_report, table1_report


class TestAsciiCurve:
    def test_marks_present_for_each_series(self):
        text = ascii_curve(
            [1.0, 2.0, 4.0],
            {"actual": [1.0, 1.8, 3.2], "perfect": [1.0, 2.0, 4.0]},
            xlabel="P",
            ylabel="S",
        )
        assert "*" in text and "o" in text
        assert "actual" in text and "perfect" in text
        assert text.splitlines()[0] == "S"

    def test_axis_ticks(self):
        text = ascii_curve([2.0, 8.0], {"s": [1.0, 3.0]}, xlabel="x")
        assert "2" in text and "8" in text

    def test_constant_series(self):
        text = ascii_curve([1.0, 2.0], {"flat": [5.0, 5.0]})
        assert "*" in text

    def test_single_point(self):
        text = ascii_curve([3.0], {"pt": [1.5]})
        assert "*" in text


class TestTableParameters:
    def test_custom_process_counts(self):
        text = table1_report(process_counts=(2, 16)).render()
        assert "Parallel, P = 16" in text
        assert "Parallel, P = 4" not in text

    def test_custom_grid_in_title(self):
        text = table1_report(grid_cells=(17, 17, 17), steps=32).render()
        assert "17 by 17 by 17" in text

    def test_figure2_custom_counts(self):
        table, curve = figure2_report(process_counts=(1, 4, 64))
        assert [row[0] for row in table.rows] == [1, 4, 64]
        assert "64" in table.render() and "64" in curve
