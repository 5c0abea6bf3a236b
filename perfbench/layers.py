"""Outside-in layer timing for the traced run.

:class:`Tracer` replaces a fixed set of the program's public functions with
timing wrappers, on the names their callers look up at call time, and puts
the originals back on exit.  Each wrapper keeps a stack frame, so a layer's
*self* time is its wall time minus the time spent in wrapped callees, and
its *inclusive* time is counted once per outermost call (recursion does not
double it).  The program's own counters (``collect_stats``,
``collect_propagation``) are collected in the same block.

Nothing here reads the program's telemetry spans: the split is taken from
outside, so it does not change when the spans are reshaped.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import ExitStack
from typing import Any, Callable

#: ``(module, attribute, layer name)``.  ``attribute`` is ``"Class.method"``
#: or a module-level name.  Module-level names are patched in the module
#: that *calls* them (``repro.service.core`` binds ``minimize`` at import),
#: or in the defining module where callers import it lazily
#: (``leapfrog_join``, ``is_acyclic``, ``solve_with_stats``).
TARGETS = (
    ("repro.service.core", "QueryService.ask", "service.core.ask"),
    ("repro.service.core", "QueryService.update", "service.core.update"),
    ("repro.service.core", "parse_query", "cq.parse"),
    ("repro.service.core", "minimize", "cq.minimize"),
    ("repro.service.core", "evaluate", "cq.evaluate"),
    ("repro.service.cache", "ResultCache.lookup", "service.cache.lookup"),
    ("repro.service.cache", "ResultCache.store", "service.cache.store"),
    ("repro.service.cache", "ResultCache.invalidate", "service.cache.invalidate"),
    ("repro.cq.evaluate", "evaluate", "cq.evaluate"),
    ("repro.cq.evaluate", "atom_relation", "cq.atom_relation"),
    ("repro.cq.evaluate", "join_all", "relational.join_all"),
    ("repro.cq.evaluate", "semijoin", "relational.semijoin"),
    ("repro.cq.evaluate", "project", "relational.project"),
    ("repro.relational.wcoj", "leapfrog_join", "relational.leapfrog_join"),
    ("repro.width.acyclic", "is_acyclic", "width.is_acyclic"),
    ("repro.datalog.incremental", "IncrementalEvaluation.apply", "datalog.apply"),
    ("repro.datalog.incremental", "IncrementalEvaluation.as_structure",
     "datalog.as_structure"),
    ("repro.consistency.propagation", "PropagationEngine.propagate",
     "consistency.propagate"),
    ("repro.csp.solvers.portfolio", "solve", "csp.portfolio.solve"),
    ("repro.csp.solvers.portfolio", "explain", "csp.portfolio.explain"),
    ("repro.csp.solvers.backtracking", "solve_with_stats",
     "csp.backtracking.solve_with_stats"),
    ("repro.csp.solvers.decomposition", "solve", "csp.decomposition.solve"),
)

#: The frame the serve client opens around each request, from when the
#: loop pulls the line to when the reply is written.
FRAMING = "service.cli.framing"

#: The front doors the workloads call.  Their self time is whatever work no
#: named layer below them took, so it is reported on its own as
#: ``front_door_residual_s`` and left in ``unattributed_s``: a growing
#: unnamed cost then shows as less of the wall explained.
FRONT_DOORS = (
    "service.core.ask", "service.core.update", "cq.evaluate", "csp.portfolio.solve",
)

#: Layers whose inclusive time is reported next to their self time.
INCLUSIVE = ("cq.minimize", "csp.portfolio.explain")

#: The relational counters reported from ``EvalStats``.
EVAL_COUNTERS = (
    "tuples_scanned", "tuples_emitted", "index_builds", "index_hits",
    "probe_misses", "max_intermediate", "total_intermediate", "column_builds",
    "batch_probes", "seeks", "trie_builds",
)

#: The propagation counters reported from ``PropagationStats``.
PROPAGATION_COUNTERS = (
    "revisions", "support_checks", "support_hits", "wipeouts", "trail_restores",
)


def _resolve(module_name: str, attribute: str) -> tuple[Any, str]:
    # ``import repro.cq.evaluate as m`` would bind the *function* that
    # ``repro.cq`` re-exports under the same name; import_module returns
    # the module object from sys.modules.
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Install the timing wrappers and counter collectors for one block.

    Use as ``with Tracer() as tracer:``; call :meth:`begin` where the
    measured region starts (it zeroes everything collected so far, such as
    set-up work) and :meth:`end` where it stops.
    """

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._stack_exit: ExitStack | None = None
        self._patched: list[tuple[Any, str, Any]] = []
        self.reset()

    # -- accumulators ----------------------------------------------------------

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("Tracer.reset inside an open frame")
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.apply_scanned = 0
        self.search_nodes = 0
        self.search_backtracks = 0

    def enter(self) -> None:
        """Open a frame whose name is given when it is closed."""
        self._stack.append([time.perf_counter(), 0.0])

    def exit(self, name: str) -> None:
        """Close the innermost frame, charging it to ``name``."""
        started, children = self._stack.pop()
        elapsed = time.perf_counter() - started
        self.self_s[name] += elapsed - children
        self.calls[name] += 1
        if not self._depth[name]:
            self.incl_s[name] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        depth = self._depth
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tracer.enter()
            depth[name] += 1
            before = hook[0](tracer) if hook else None
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                tracer.exit(name)
            if hook:
                hook[1](tracer, before, result)
            return result

        return timed

    # -- the measured region ---------------------------------------------------

    def begin(self) -> None:
        """Start the measured region: zero the layer times and counters."""
        self.reset()
        self.eval_stats.reset()
        self.propagation.reset()

    def end(self) -> dict[str, float]:
        """Stop the measured region and return what it collected: each
        layer's ``<name>.self_s``, the ``incl_s`` of :data:`INCLUSIVE`, and
        the raw counters, all of which :func:`combine` can add up.  Calls
        after this (such as correctness checks) are not part of it."""
        ev, pr = self.eval_stats, self.propagation
        out = {f"{name}.self_s": t for name, t in self.self_s.items()}
        for name in INCLUSIVE:
            out[f"{name}.incl_s"] = self.incl_s[name]
        out.update({f"relational.{k}": getattr(ev, k) for k in EVAL_COUNTERS})
        out.update({f"consistency.{k}": getattr(pr, k) for k in PROPAGATION_COUNTERS})
        out["cq.atom_relation.calls"] = self.calls["cq.atom_relation"]
        out["datalog.apply_scanned"] = self.apply_scanned
        out["csp.search.nodes"] = self.search_nodes
        out["csp.search.backtracks"] = self.search_backtracks
        return out

    # -- install / restore -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        from repro.consistency.propagation import collect_propagation
        from repro.relational.stats import collect_stats

        stack = ExitStack()
        try:
            for module_name, attribute, name in TARGETS:
                owner, attr = _resolve(module_name, attribute)
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            self.eval_stats = stack.enter_context(collect_stats())
            self.propagation = stack.enter_context(collect_propagation())
        except BaseException:
            stack.close()
            self._restore()
            raise
        self._stack_exit = stack
        return self

    def __exit__(self, *exc) -> None:
        try:
            if self._stack_exit is not None:
                self._stack_exit.close()
        finally:
            self._restore()

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def combine(total: dict[str, float], part: dict[str, float]) -> dict[str, float]:
    """Add ``part`` into ``total`` (``max_intermediate`` takes the max)."""
    for name, value in part.items():
        if name == "relational.max_intermediate":
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def derive(values: dict[str, float]) -> dict[str, float]:
    """The ratio metrics, from the raw totals :func:`combine` added up."""
    return {
        "relational.emitted_per_scanned": _ratio(
            values.get("relational.tuples_emitted", 0),
            values.get("relational.tuples_scanned", 0)),
        "consistency.support_hit_rate": _ratio(
            values.get("consistency.support_hits", 0),
            values.get("consistency.support_checks", 0)),
        "service.cache.hit_rate": _ratio(
            values.get("service.cache.hits", 0),
            values.get("service.cache.lookups", 0)),
        "datalog.scanned_per_changed_row": _ratio(
            values.get("datalog.apply_scanned", 0),
            values.get("datalog.rows_changed", 0)),
    }


# -- counters read at layer boundaries ----------------------------------------


def _scanned_now(tracer: Tracer) -> int:
    return tracer.eval_stats.tuples_scanned


def _charge_apply(tracer: Tracer, before: int, _report) -> None:
    # Tuples scanned while maintaining the fixpoint, for the waste ratio
    # ``datalog.scanned_per_changed_row``.
    tracer.apply_scanned += tracer.eval_stats.tuples_scanned - before


def _charge_search(tracer: Tracer, _before, stats) -> None:
    tracer.search_nodes += stats.nodes
    tracer.search_backtracks += stats.backtracks


_HOOKS = {
    "datalog.apply": (_scanned_now, _charge_apply),
    "csp.backtracking.solve_with_stats": (lambda tracer: None, _charge_search),
}
