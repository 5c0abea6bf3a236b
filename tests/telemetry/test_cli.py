"""The profile/trace CLI subcommands and the payload-shaped stats --json."""

import json

import pytest

import repro.__main__ as cli
from repro.telemetry import parse_jsonl, reaggregate


@pytest.mark.parametrize(
    "workload", ["triangle", "join", "datalog", "propagation", "search"]
)
def test_profile_renders_every_workload(workload, capsys):
    cli.main(["profile", "--workload", workload])
    out = capsys.readouterr().out
    assert f"trace: profile:{workload}" in out
    assert "per-operator totals" in out


def test_profile_triangle_shows_the_wcoj_route(capsys):
    cli.main(["profile", "--workload", "triangle"])
    out = capsys.readouterr().out
    assert "leapfrog_join" in out
    assert "route=wcoj" in out
    assert "eval counters" in out


def test_profile_jsonl_stream_parses_and_reaggregates(capsys):
    cli.main(["profile", "--workload", "join", "--jsonl"])
    lines = capsys.readouterr().out.splitlines()
    events = parse_jsonl(lines)
    assert events[0]["attrs"]["trace"] == "profile:join"
    agg = reaggregate(events)
    assert agg["eval"].as_dict()["tuples_scanned"] > 0
    # The acyclic chain routed through Yannakakis, and said so.
    (decision,) = agg["eval"].routing_decisions
    assert decision["route"] == "yannakakis" and decision["acyclic"] is True


def test_trace_always_emits_jsonl(capsys):
    cli.main(["trace", "--workload", "triangle"])
    events = parse_jsonl(capsys.readouterr().out.splitlines())
    assert any(
        e.get("type") == "span_open" and e.get("name") == "leapfrog_join"
        for e in events
    )


def test_profile_out_writes_a_file(tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    cli.main(["profile", "--workload", "propagation", "--jsonl", "--out", str(out_file)])
    events = parse_jsonl(out_file.read_text().splitlines())
    agg = reaggregate(events)
    assert agg["propagation"].revisions > 0
    # stdout stays clean (the note goes to stderr).
    assert capsys.readouterr().out == ""


def test_stats_json_carries_the_metricset_tag(capsys):
    cli.main(["stats", "--workload", "chain", "--strategies", "greedy", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["greedy"]["metricset"] == "eval"
    assert payload["greedy"]["joins"] > 0


def test_stats_interned_names_only_the_propagation_strategy(capsys):
    """"interned" is a propagation strategy, not a join execution: a join
    workload runs no rows for it, the propagation workload runs exactly it."""
    cli.main(["stats", "--workload", "e1", "--strategies", "interned", "--json"])
    assert json.loads(capsys.readouterr().out) == {}
    cli.main(
        ["stats", "--workload", "propagation", "--strategies", "interned", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["interned"]
    assert payload["interned"]["metricset"] == "propagation"


def test_propagation_stats_json_carries_the_metricset_tag(capsys):
    cli.main(
        ["stats", "--workload", "propagation", "--strategies", "residual", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"]["metricset"] == "propagation"
    assert payload["residual"]["revisions"] > 0
    assert payload["residual"]["seconds"] >= 0
