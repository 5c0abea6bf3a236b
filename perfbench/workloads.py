"""The four workloads: set-up, the measured loop, and the correctness checks.

Each workload class generates its inputs from the seed (not timed), sets the
program up (timed as ``setup_s``), drives the program's public front door in
a closed loop with one client, and checks every output after the clock has
stopped.  ``unit`` runs one fixed unit of work (one serve session, one
database, one pool of instances) from its seed to its checks; ``measure``
repeats it with sub-seeds until the measured time reaches the run length,
and the traced run repeats a fixed block of units, so that one code path
feeds both the end-to-end and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import time
from dataclasses import dataclass, field

import inputs
import speed
from layers import FRAMING, Tracer, combine

@dataclass
class Run:
    """What one run measured.

    ``latencies`` are the primary operation's, in seconds; ``ops`` counts
    every operation completed in the measured region and ``busy`` is that
    region's length.  Times are scaled to the reference host's speed;
    ``measured`` is the measured region's unscaled length.  ``counters``
    are the workload's own per-layer counters (traced runs only).
    """

    latencies: list[float] = field(default_factory=list)
    ops: int = 0
    busy: float = 0.0
    measured: float = 0.0
    setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def add(self, part: "Run") -> "Run":
        """Add the unit ``part`` to this run."""
        self.latencies += part.latencies
        self.ops += part.ops
        self.busy += part.busy
        self.measured += part.measured
        self.setups += part.setups
        self.attempted += part.attempted
        self.failed += part.failed
        self.peak_rss_mb = self.peak_rss_mb or part.peak_rss_mb
        combine(self.counters, part.counters)
        return self

    def timed(self, elapsed: float, scale: float) -> None:
        """Record one operation's unscaled time and its scale."""
        self.latencies.append(elapsed * scale)
        self.busy += elapsed * scale
        self.measured += elapsed


def measure(workload, seed: int, seconds: float) -> Run:
    """Units with sub-seeds ``seed * 1000 + k``, each checked as soon as it
    ends, until their measured regions add up to ``seconds``.

    The host's speed is probed between timed operations, and each time is
    scaled to the reference host (see ``speed.py``); ``measured`` keeps
    the unscaled total.
    """
    run = Run()
    pace = speed.Pace()
    k = 0
    while k == 0 or run.measured < seconds:
        run.add(workload.unit(seed * 1000 + k, pace=pace))
        k += 1
    return run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _same_rows(attributes, rows, want_attributes, want_rows) -> bool:
    """Whether ``rows`` over ``attributes`` equal ``want_rows`` over
    ``want_attributes``, matching columns by name."""
    if sorted(attributes) != sorted(want_attributes):
        return False
    order = [list(attributes).index(a) for a in want_attributes]
    return {tuple(row[i] for i in order) for row in rows} == set(want_rows)


# -- serve sessions -------------------------------------------------------------

SERVE_ARGS = argparse.Namespace(program=None, strategy=None, deletion="dred")
STATS = inputs.request("stats")
QUIT = inputs.request("quit")


class _Sink:
    """The injected stdout: keeps each reply and the time it was written."""

    def __init__(self) -> None:
        self.replies: list[str] = []
        self.times: list[float] = []
        self.tracer: Tracer | None = None

    def write(self, text: str) -> None:
        now = time.perf_counter()
        if self.tracer is not None:
            self.tracer.exit(FRAMING)
            self.tracer = None
        self.times.append(now)
        self.replies.append(text)

    def flush(self) -> None:
        pass


@dataclass
class Served:
    """One serve session: the bulk-load time, the measured requests'
    unscaled latencies, the scale of the load followed by that of each
    request, their raw replies (parsed one at a time when checked, so the
    checker's memory stays small next to the program's), and the replies to
    the ``stats`` requests around the measured region and to ``after``."""

    load_s: float
    latencies: list[float]
    scales: list[float]
    replies: list[str]
    stats_before: dict
    stats_after: dict
    after: list[dict]
    counters: dict


#: Measured time between two probes of a serve session, in seconds: its
#: requests are scaled by the probes on either side of them.
PACE_WINDOW = 0.05


def serve(session, *, tracer=None, after=(), pace=speed.unscaled) -> Served:
    """Run one ``repro serve`` session through ``run_serve`` in-process.

    The stdin is a generator over the session's request lines: each line is
    pulled only after the previous reply was written (a closed loop with
    one client).  A request's latency runs from the pull to the write.
    The generator probes the host with ``pace`` after the bulk load and
    after each :data:`PACE_WINDOW` of requests, outside their latencies.
    """
    from repro.service.cli import run_serve

    sink = _Sink()
    pulls: list[float] = []
    scales: list[float] = []
    counters: dict = {}

    def lines():
        pulls.append(time.perf_counter())
        yield session.load
        scales.append(pace(sink.times[0] - pulls[0]))
        pulls.append(time.perf_counter())
        yield STATS
        gc.collect()
        if tracer is not None:
            tracer.begin()
        pending, waited = 0, 0.0
        for request in session.requests:
            if tracer is not None:
                tracer.enter()
                sink.tracer = tracer
            pulls.append(time.perf_counter())
            yield request.line
            pending += 1
            waited += sink.times[-1] - pulls[-1]
            if waited >= PACE_WINDOW:
                scales.extend([pace(waited)] * pending)
                pending, waited = 0, 0.0
        if pending:
            scales.extend([pace(waited)] * pending)
        if tracer is not None:
            counters.update(tracer.end())
        for line in (STATS, *after, QUIT):
            pulls.append(time.perf_counter())
            yield line

    run_serve(SERVE_ARGS, lines(), sink)
    n = len(session.requests)
    replies = sink.replies
    return Served(
        load_s=sink.times[0] - pulls[0],
        latencies=[sink.times[i] - pulls[i] for i in range(2, 2 + n)],
        scales=scales,
        replies=replies[2 : 2 + n],
        stats_before=json.loads(replies[1])["stats"],
        stats_after=json.loads(replies[2 + n])["stats"],
        after=[json.loads(r) for r in replies[3 + n : -1]],
        counters=counters,
    )


def _cache_counters(before: dict, after: dict) -> dict[str, float]:
    keys = ("exact_hits", "equivalence_hits", "projection_hits", "hits",
            "lookups", "containment_probes", "evictions")
    return {
        f"service.cache.{k}": after["cache"][k] - before["cache"][k] for k in keys
    }


def _update_counters(requests, replies) -> dict[str, float]:
    changed = rounds = 0
    for request, text in zip(requests, replies):
        reply = json.loads(text)
        if isinstance(request, inputs.Update) and reply.get("ok"):
            changed += reply["rows_added"] + reply["rows_removed"]
            rounds += reply["rounds"]
    return {"datalog.rows_changed": changed, "datalog.rounds": rounds}


def _apply(edges: set, request) -> None:
    if request.op == "insert":
        edges.update(request.rows)
    else:
        edges.difference_update(request.rows)


class ServiceWorkload:
    """What the two serve workloads share."""

    #: The percentile reported as ``tail_ms``.
    tail = 99

    def primary(self, request) -> bool:
        raise NotImplementedError

    def check(self, session, served: Served, seed: int) -> int:
        raise NotImplementedError

    def after(self) -> tuple[str, ...]:
        return ()

    def unit(self, seed: int, tracer: Tracer | None = None,
             pace=speed.unscaled) -> Run:
        """One session: bulk load (``setup_s``), the measured requests, then
        the checks."""
        session = self.session(seed)
        served = serve(session, tracer=tracer, after=self.after(), pace=pace)
        load_scale, *scales = served.scales
        run = Run(
            ops=len(session.requests),
            setups=[served.load_s * load_scale],
            attempted=len(session.requests),
            peak_rss_mb=peak_rss_mb(),
        )
        for request, elapsed, scale in zip(session.requests, served.latencies, scales):
            run.busy += elapsed * scale
            run.measured += elapsed
            if self.primary(request):
                run.latencies.append(elapsed * scale)
        if tracer is not None:
            combine(run.counters, served.counters)
            combine(run.counters, _cache_counters(
                served.stats_before, served.stats_after))
            combine(run.counters, _update_counters(
                session.requests, served.replies))
        run.failed = self.check(session, served, seed)
        return run


class ServiceRead(ServiceWorkload):
    """``service-read``: the read mix on 400-node forests."""

    #: Units in one block of the traced run.
    trace_units = 6

    def __init__(self, nodes: int = 400, events: int = 200, update_every: int = 25):
        self.size = dict(nodes=nodes, events=events, update_every=update_every)

    def session(self, seed: int):
        return inputs.read_session(seed, **self.size)

    def primary(self, request) -> bool:
        return isinstance(request, inputs.Ask)

    def check(self, session, served: Served, seed: int) -> int:
        """Compare every answer with the template's answer over the forest's
        closure, both computed here from scratch once per (update epoch,
        template), sharing no code with the program."""
        edges = set(session.edges)
        database = None
        reference: dict[int, set] = {}
        failed = 0
        for request, text in zip(session.requests, served.replies):
            reply = json.loads(text)
            if not reply.get("ok"):
                failed += 1
                continue
            if isinstance(request, inputs.Update):
                _apply(edges, request)
                database, reference = None, {}
                continue
            if database is None:
                database = {"E": edges, "T": forest_closure(edges)}
            if request.template not in reference:
                reference[request.template] = template_answer(
                    request.template, database
                )
            if not _same_rows(
                reply["attributes"], reply["rows"], request.head,
                reference[request.template],
            ):
                failed += 1
        return failed


def template_answer(template: int, database: dict) -> set[tuple]:
    """A template's answer by a nested-loop join over binary relations.
    It costs far less than the program's evaluation, which would double the
    run if it served as the reference."""
    head, body = inputs.TEMPLATES[template]
    successors: dict[str, dict] = {}
    for predicate, rows in database.items():
        index = successors[predicate] = {}
        for a, b in rows:
            index.setdefault(a, []).append(b)
    out: set[tuple] = set()

    def extend(i: int, binding: dict) -> None:
        if i == len(body):
            out.add(tuple(binding[v] for v in head))
            return
        predicate, (x, y) = body[i]
        if x in binding:
            rows = ((binding[x], b) for b in successors[predicate].get(binding[x], ()))
        else:
            rows = database[predicate]
        for a, b in rows:
            if binding.get(x, a) != a or binding.get(y, b) != b or (x == y and a != b):
                continue
            extend(i + 1, {**binding, x: a, y: b})

    extend(0, {})
    return out


def forest_closure(edges) -> set[tuple[int, int]]:
    """Transitive closure of a forest, by walking up from every node."""
    parent = {child: p for p, child in edges}
    out = set()
    for node in parent:
        up = parent.get(node)
        while up is not None:
            out.add((up, node))
            up = parent.get(up)
    return out


class ServiceWrite(ServiceWorkload):
    """``service-write``: reparent batches only, on 500-node forests."""

    #: Two or three update requests in a hundred move a node with a tenth
    #: or more of the forest below it.  P99 falls among those few and
    #: swings with which nodes they were; P95 lies below them.
    tail = 95
    trace_units = 8

    #: Update replies checked per session against a local forest closure.
    SAMPLED_REPLIES = 8

    def __init__(self, nodes: int = 500, batches: int = 40):
        self.size = dict(nodes=nodes, batches=batches)

    def session(self, seed: int):
        return inputs.write_session(seed, **self.size)

    def primary(self, request) -> bool:
        return True

    def after(self) -> tuple[str, ...]:
        return (inputs.request("query", q=inputs.template_text(0)),)

    def check(self, session, served: Served, seed: int) -> int:
        """Check the final ``T`` against a from-scratch semi-naive fixpoint,
        and a seeded sample of update replies against the row counts of a
        local forest closure before and after the request."""
        from repro.datalog.engine import evaluate_seminaive
        from repro.datalog.library import transitive_closure_program

        done = session.requests[: len(served.replies)]
        replies = [json.loads(text) for text in served.replies]
        failed = sum(1 for reply in replies if not reply.get("ok"))
        sample = set(
            random.Random(seed).sample(
                range(len(done)), min(self.SAMPLED_REPLIES, len(done))
            )
        )
        edges = set(session.edges)
        for i, request in enumerate(done):
            if i not in sample:
                _apply(edges, request)
                continue
            old_edges, old_closure = set(edges), forest_closure(edges)
            _apply(edges, request)
            closure = forest_closure(edges)
            added = len(edges - old_edges) + len(closure - old_closure)
            removed = len(old_edges - edges) + len(old_closure - closure)
            reply = replies[i]
            if reply.get("ok") and (
                reply["rows_added"] != added or reply["rows_removed"] != removed
            ):
                failed += 1
        final = served.after[0]
        want = evaluate_seminaive(transitive_closure_program(), {"E": edges})["T"]
        if not final.get("ok") or not _same_rows(
            final["attributes"], final["rows"], ("X", "Y"), want
        ):
            failed += 1
        return failed


# -- cq-join ------------------------------------------------------------------


class CqJoin:
    """``cq-join``: the fixed query mix on a resident ``Structure`` through
    ``cq.evaluate(..., strategy="auto")``."""

    #: Seven shapes split the sorted latencies into seven bands: P50 sits
    #: in the middle of the fourth, P75 a quarter into the sixth, neither
    #: on the edge between two shapes.
    tail = 75
    trace_units = 1

    def __init__(self, edges: int = 5000, nodes: int = 1800, chain_rows: int = 5000,
                 rounds: int = 3):
        self.size = dict(edges=edges, nodes=nodes, chain_rows=chain_rows,
                         chain_domain=chain_rows)
        self.rounds = rounds

    @staticmethod
    def build(database):
        from repro.relational.structure import Structure

        domain = {v for rows in database.values() for row in rows for v in row}
        return Structure({p: 2 for p in database}, domain, database)

    def setup(self, database):
        """Build the structure, parse the mix and run it once untimed:
        atom relations, indexes and column stores are then warm."""
        from repro.cq import parse_query

        started = time.perf_counter()
        structure = self.build(database)
        queries = [parse_query(text) for _, text in inputs.JOIN_QUERIES]
        module = importlib.import_module("repro.cq.evaluate")
        for query in queries:
            module.evaluate(query, structure, strategy="auto")
        return structure, queries, time.perf_counter() - started

    def unit(self, seed: int, tracer: Tracer | None = None,
             pace=speed.unscaled) -> Run:
        """One database: set-up, :attr:`rounds` rounds of the mix, then the
        checks.  Every result is compared with the first round's, outside
        the timed call, and the first round's with default-strategy
        evaluation on a separate structure."""
        from repro.cq import evaluate, parse_query

        module = importlib.import_module("repro.cq.evaluate")
        run = Run()
        database = inputs.join_database(seed, **self.size)
        gc.collect()
        structure, queries, setup_s = self.setup(database)
        run.setups.append(setup_s * pace(setup_s))
        first: list = []
        gc.collect()
        if tracer is not None:
            tracer.begin()
        for round_ in range(self.rounds):
            for k, query in enumerate(queries):
                started = time.perf_counter()
                result = module.evaluate(query, structure, strategy="auto")
                elapsed = time.perf_counter() - started
                run.timed(elapsed, pace(elapsed))
                if round_ == 0:
                    first.append(result)
                elif not _same_rows(
                    result.attributes, result.tuples, first[k].attributes,
                    first[k].tuples,
                ):
                    run.failed += 1
        if tracer is not None:
            run.counters = tracer.end()
        run.ops = run.attempted = len(run.latencies)
        run.peak_rss_mb = peak_rss_mb()
        structure = None
        reference = self.build(database)
        for result, (_, text) in zip(first, inputs.JOIN_QUERIES):
            want = evaluate(parse_query(text), reference)
            if not _same_rows(
                result.attributes, result.tuples, want.attributes, want.tuples
            ):
                run.failed += 1
        return run


# -- csp-solve ------------------------------------------------------------------


class CspSolve:
    """``csp-solve``: pools of random CSPs through the portfolio solver."""

    tail = 90
    trace_units = 2

    def __init__(self, pool: int = 12):
        self.pool = pool

    @staticmethod
    def construct(raws):
        from repro.csp.instance import Constraint, CSPInstance

        return [
            CSPInstance(
                raw.variables, raw.domain,
                [Constraint(scope, rows) for scope, rows in raw.constraints],
            )
            for raw in raws
        ]

    def unit(self, seed: int, tracer: Tracer | None = None,
             pace=speed.unscaled) -> Run:
        """One pool: construct its instances (``setup_s``), solve each once,
        then check each solution against every constraint and each "no
        solution" verdict against MAC search with the naive AC-3 oracle."""
        from repro.csp.solvers import backtracking

        portfolio = importlib.import_module("repro.csp.solvers.portfolio")
        run = Run()
        raws = inputs.csp_instances(seed, self.pool)
        started = time.perf_counter()
        instances = self.construct(raws)
        setup_s = time.perf_counter() - started
        run.setups.append(setup_s * pace(setup_s))
        solutions = []
        gc.collect()
        if tracer is not None:
            tracer.begin()
        for instance in instances:
            started = time.perf_counter()
            solutions.append(portfolio.solve(instance))
            elapsed = time.perf_counter() - started
            run.timed(elapsed, pace(elapsed))
        if tracer is not None:
            run.counters = tracer.end()
        run.ops = run.attempted = len(instances)
        run.peak_rss_mb = peak_rss_mb()
        for raw, solution in zip(raws, solutions):
            if solution is None:
                oracle = backtracking.solve(self.construct([raw])[0], strategy="naive")
                run.failed += oracle is not None
                continue
            ok = set(solution) == set(raw.variables) and all(
                tuple(solution[v] for v in scope) in set(rows)
                for scope, rows in raw.constraints
            )
            run.failed += not ok
        return run


WORKLOADS = {
    "service-read": ServiceRead,
    "service-write": ServiceWrite,
    "cq-join": CqJoin,
    "csp-solve": CspSolve,
}
