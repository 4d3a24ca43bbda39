"""E7 on its record (``python -m repro effort``): the mechanical-edit
counts of the refinement stages that the paper measured in person-days."""


def test_both_versions_counted(record):
    rows = record("effort").tables["metrics"].rows
    assert [row[0] for row in rows] == [
        "Version A (P=4+host)",
        "Version C (P=4+host)",
    ]
    assert all(n > 0 for row in rows for n in row[1:])
    # Version C adds the far-field reduction to Version A's exchanges.
    assert rows[1][1] > rows[0][1] and rows[1][2] > rows[0][2]


def test_final_stage_is_one_mechanical_call(record):
    # The verdict holds iff to_parallel() gave one process per partition.
    assert record("effort").ok
