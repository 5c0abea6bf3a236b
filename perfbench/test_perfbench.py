"""Tests of the benchmark itself: its checks fire, and its counters repeat.

Run from the root of the repository with ``python -m pytest perfbench``.
The workloads run here at small sizes; the benchmark's own sizes are the
constructor defaults in ``workloads.py``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for path in (str(SRC), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import workloads  # noqa: E402

SMALL = {
    "service-read": dict(nodes=60, events=80, update_every=10),
    "service-write": dict(nodes=80, batches=20),
    "cq-join": dict(edges=600, nodes=200, chain_rows=300, rounds=1),
    "csp-solve": dict(pool=6),
}


def small(name: str):
    return workloads.WORKLOADS[name](**SMALL[name])


def _drop_a_row(relation):
    from repro.relational.relation import Relation

    rows = sorted(relation.tuples)
    return Relation(relation.attributes, rows[1:]) if rows else relation


def _plant_ask(monkeypatch):
    from repro.service.core import QueryService, ServiceAnswer

    ask = QueryService.ask

    def wrong(self, query):
        answer = ask(self, query)
        return ServiceAnswer(_drop_a_row(answer.result), answer.outcome, answer.seconds)

    monkeypatch.setattr(QueryService, "ask", wrong)


def _plant_update(monkeypatch):
    from repro.service.core import QueryService

    update = QueryService.update

    def wrong(self, inserts=None, deletes=None):
        # Lose every insert batch: the forest, its closure and the
        # reported row counts all go wrong.
        return update(self, None, deletes)

    monkeypatch.setattr(QueryService, "update", wrong)


def _plant_join(monkeypatch):
    module = importlib.import_module("repro.cq.evaluate")
    evaluate = module.evaluate
    monkeypatch.setattr(
        module, "evaluate", lambda *a, **k: _drop_a_row(evaluate(*a, **k))
    )


def _plant_solve(monkeypatch):
    portfolio = importlib.import_module("repro.csp.solvers.portfolio")
    monkeypatch.setattr(portfolio, "solve", lambda instance: None)


PLANTS = {
    "service-read": _plant_ask,
    "service-write": _plant_update,
    "cq-join": _plant_join,
    "csp-solve": _plant_solve,
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_correct_program_has_no_errors(name):
    # The path behind the end-to-end metrics.
    run = workloads.measure(small(name), seed=3, seconds=0.2)
    assert run.attempted > 0
    assert run.failed == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_planted_wrong_answer_gives_positive_error_rate(name, monkeypatch):
    PLANTS[name](monkeypatch)
    # One unit: a planted solver that returns at once adds no busy time.
    run = workloads.measure(small(name), seed=3, seconds=0)
    assert run.failed / run.attempted > 0


_COUNTERS = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
from layers import Tracer
from test_perfbench import small
workload = small({name!r})
workload.unit(5)
with Tracer() as tracer:
    run = workload.unit(5, tracer)
print(json.dumps({{k: v for k, v in run.counters.items()
                   if not k.endswith(("self_s", "incl_s"))}}, sort_keys=True))
"""


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counters_repeat_exactly_across_hash_seeds(name):
    code = _COUNTERS.format(src=str(SRC), here=str(HERE), name=name)
    outputs = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        outputs.append(json.loads(done.stdout.splitlines()[-1]))
    assert outputs[0] == outputs[1] == outputs[2]
    assert any(outputs[0].values())


def test_tracer_restores_every_wrapped_name():
    from layers import TARGETS, Tracer, _resolve

    before = [_resolve(m, a) for m, a, _ in TARGETS]
    before = [owner.__dict__[attr] for owner, attr in before]
    with Tracer():
        pass
    after = [_resolve(m, a) for m, a, _ in TARGETS]
    assert [owner.__dict__[attr] for owner, attr in after] == before
