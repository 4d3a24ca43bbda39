"""Theorem 1 (E5) and Figure 1 (E6) on their records (``python -m repro
theorem1`` / ``figure1``)."""


class TestTheorem1:
    def test_conforming_ring_is_determinate(self, record):
        report = record("theorem1").values["stencil_ring"]
        assert report.determinate, report.summary()
        assert report.runs == 18

    def test_exhaustive_enumeration(self, record):
        values = record("theorem1").values
        enum = values["enumeration"]
        assert enum.determinate and enum.interleavings == 4
        assert values["reduced"].determinate
        assert values["reduced"].visited <= enum.interleavings

    def test_permutation_certificate(self, record):
        assert record("theorem1").values["certificate"].num_swaps == 1

    def test_one_foata_form(self, record):
        f1, f2 = record("theorem1").values["foata"]
        assert f1 == f2
        assert (f1.total_events, f1.depth, f1.width) == (4, 2, 2)

    def test_every_hypothesis_violation_breaks_determinacy(self, record):
        violations = record("theorem1").values["violations"]
        assert list(violations) == [
            "shared variables",
            "nondeterministic body",
            "finite slack",
        ]
        assert not any(r.determinate for r in violations.values())
        assert len(violations["shared variables"].digests) > 1
        assert record("theorem1").ok


class TestFigure1:
    def test_same_actions_in_different_orders(self, record):
        rec = record("figure1")
        assert rec.ok
        for trace in rec.values["traces"]:
            kinds = [e.kind for e in trace.events]
            assert kinds.count("send") == kinds.count("recv") == 2
