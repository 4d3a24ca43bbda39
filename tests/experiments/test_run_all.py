"""``python -m repro all`` prints every record through one ``out``."""

from repro import cli


def test_run_all_captures_every_experiment(record, monkeypatch):
    monkeypatch.setattr(
        cli,
        "EXPERIMENTS",
        {
            name: (lambda name=name: record(name), text)
            for name, (_, text) in cli.EXPERIMENTS.items()
        },
    )
    lines: list[str] = []
    assert cli.run_all(out=lines.append)
    position = 0
    for name in cli.EXPERIMENTS:
        printed: list[str] = []
        assert cli.render(record(name), out=printed.append) is True
        # Each record's text, in registry order, then the summary.
        assert lines[position : position + len(printed)] == printed
        position += len(printed)
    assert lines[position] == cli._header("summary")
    assert lines[position + 1 :] == [f"  {name:10s} OK" for name in cli.EXPERIMENTS]
