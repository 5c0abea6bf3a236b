"""The whole-library differential matrix: every decider that answers the same
question must agree, across a broad randomized workload sweep.

This is the highest-leverage test in the suite: the paper's content *is* a
web of equivalences, so any divergence between two components is a bug in
at least one of them.
"""

import random
from itertools import product

import pytest

from repro.consistency.arc import ac3, singleton_arc_consistency
from repro.csp.convert import csp_to_homomorphism
from repro.csp.instance import Constraint, CSPInstance
from repro.csp.solvers import (
    backjumping,
    backtracking,
    brute,
    consistency,
    decomposition,
    join,
    portfolio,
)
from repro.csp.solvers.backtracking import Inference
from repro.csp.solvers.consistency import Verdict
from repro.games.lfp import duplicator_wins_via_lfp
from repro.games.pebble import duplicator_wins
from repro.relational.homomorphism import homomorphism_exists


def random_instance(seed: int) -> CSPInstance:
    """A broad instance family: varying arity (1–3), domain (2–3), shape."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    d = rng.randint(2, 3)
    variables = list(range(n))
    constraints = []
    for _ in range(rng.randint(1, 5)):
        arity = rng.randint(1, min(3, n))
        scope = tuple(rng.sample(variables, arity))
        keep = rng.uniform(0.3, 0.9)
        rows = {
            row for row in product(range(d), repeat=arity) if rng.random() < keep
        }
        constraints.append(Constraint(scope, rows))
    return CSPInstance(variables, range(d), constraints)


DECIDERS = [
    ("backtracking-none", lambda i: backtracking.is_solvable(i, Inference.NONE)),
    ("backtracking-fc", lambda i: backtracking.is_solvable(i, Inference.FORWARD_CHECKING)),
    ("backtracking-mac", lambda i: backtracking.is_solvable(i, Inference.MAC)),
    ("backtracking-mac-naive", lambda i: backtracking.is_solvable(
        i, Inference.MAC, strategy="naive")),
    ("backtracking-mac-interned", lambda i: backtracking.is_solvable(
        i, Inference.MAC, strategy="interned")),
    ("backtracking-mac-columnar", lambda i: backtracking.is_solvable(
        i, Inference.MAC, strategy="columnar")),
    ("backjumping", backjumping.is_solvable),
    ("join", join.is_solvable),
    ("join-indexed", lambda i: join.is_solvable(i, strategy="indexed")),
    ("join-scan", lambda i: join.is_solvable(i, strategy="scan")),
    ("join-textbook-scan", lambda i: join.is_solvable(i, strategy="textbook+scan")),
    ("join-wcoj", lambda i: join.is_solvable(i, strategy="wcoj")),
    ("join-textbook-wcoj", lambda i: join.is_solvable(
        i, strategy="textbook+wcoj")),
    ("join-columnar", lambda i: join.is_solvable(i, strategy="columnar")),
    ("join-smallest-columnar", lambda i: join.is_solvable(
        i, strategy="smallest+columnar")),
    ("decomposition", decomposition.is_solvable),
    ("consistency-k2", lambda i: consistency.is_solvable(i, 2)),
    ("consistency-k2-naive", lambda i: consistency.is_solvable(i, 2, strategy="naive")),
    ("consistency-k2-interned", lambda i: consistency.is_solvable(
        i, 2, strategy="interned")),
    ("consistency-k2-columnar", lambda i: consistency.is_solvable(
        i, 2, strategy="columnar")),
    ("portfolio", portfolio.is_solvable),
    ("hom-search", lambda i: homomorphism_exists(*csp_to_homomorphism(i))),
]


@pytest.mark.parametrize("seed", range(30))
def test_all_deciders_agree(seed):
    inst = random_instance(seed)
    expected = brute.is_solvable(inst)
    for name, decide in DECIDERS:
        assert decide(inst) == expected, f"{name} disagrees on seed {seed}"


@pytest.mark.parametrize("seed", range(30))
def test_counting_agrees(seed):
    inst = random_instance(seed + 1000)
    assert decomposition.count_solutions(inst) == brute.count_solutions(inst)


@pytest.mark.parametrize("seed", range(20))
def test_refuters_are_sound(seed):
    """Incomplete refutation procedures must never refute a solvable
    instance: AC-3, SAC, k-consistency."""
    inst = random_instance(seed + 2000)
    solvable = brute.is_solvable(inst)
    if not ac3(inst).consistent:
        assert not solvable, "AC-3 refuted a solvable instance"
    if not singleton_arc_consistency(inst).consistent:
        assert not solvable, "SAC refuted a solvable instance"
    for k in (2, 3):
        if consistency.solve_decision(inst, k) is Verdict.UNSATISFIABLE:
            assert not solvable, f"{k}-consistency refuted a solvable instance"


@pytest.mark.parametrize("seed", range(15))
def test_game_engines_agree(seed):
    inst = random_instance(seed + 3000)
    a, b = csp_to_homomorphism(inst)
    if len(a.domain) > 4 or len(b.domain) > 3:
        return  # keep the LFP engine's configuration space small
    for k in (1, 2):
        assert duplicator_wins(a, b, k) == duplicator_wins_via_lfp(a, b, k)


@pytest.mark.parametrize("seed", range(20))
def test_solutions_from_every_solver_are_valid(seed):
    inst = random_instance(seed + 4000)
    norm = inst.normalize()
    for solver in (
        backtracking.solve,
        backjumping.solve,
        join.solve,
        decomposition.solve,
        portfolio.solve,
    ):
        solution = solver(inst)
        if solution is not None:
            assert norm.is_solution(solution)


def _canonical_pc(instance):
    """A strategy-comparable view of a path-consistency output: the map from
    each binary scope (sorted) to its relation, plus unary domains."""
    if instance is None:
        return None
    unary = {}
    pairs = {}
    for c in instance.constraints:
        if c.arity == 1:
            v = c.scope[0]
            rows = {row[0] for row in c.relation}
            unary[v] = unary.get(v, rows) & rows
        elif c.arity == 2:
            x, y = c.scope
            rows = set(c.relation) if x < y else {(b, a) for a, b in c.relation}
            key = (min(x, y), max(x, y))
            pairs[key] = pairs.get(key, rows) & rows
    return unary, pairs


@pytest.mark.parametrize("seed", range(200))
def test_propagation_strategies_identical(seed):
    """The tentpole differential: residual-support and interned (bitset)
    AC/SAC/PC must compute exactly what the naive seed implementations
    compute — same verdicts always (wipeouts included), bit-identical
    fixpoint domains whenever consistent.  (On a wipeout the *partial*
    domains of any AC variant depend on worklist pop order, so only the
    verdict is compared — except residual vs interned, which share the
    worklist discipline and so agree even on partial wipeout domains.)

    The instance family mixes unary through ternary constraints, so the
    sweep covers generalized (non-binary) arc consistency too.
    """
    inst = random_instance(seed + 6000)

    ac_naive = ac3(inst, strategy="naive")
    ac_res = ac3(inst, strategy="residual")
    ac_int = ac3(inst, strategy="interned")
    ac_col = ac3(inst, strategy="columnar")
    assert (
        ac_naive.consistent
        == ac_res.consistent
        == ac_int.consistent
        == ac_col.consistent
    ), f"ac3 verdict, seed {seed}"
    if ac_naive.consistent:
        assert ac_naive.domains == ac_res.domains, f"ac3 domains, seed {seed}"
    assert ac_res.domains == ac_int.domains, f"ac3 interned domains, seed {seed}"
    # The columnar engine inherits the interned worklist discipline, so its
    # domains match even on partial wipeouts.
    assert ac_int.domains == ac_col.domains, f"ac3 columnar domains, seed {seed}"

    sac_naive = singleton_arc_consistency(inst, strategy="naive")
    sac_res = singleton_arc_consistency(inst, strategy="residual")
    sac_int = singleton_arc_consistency(inst, strategy="interned")
    sac_col = singleton_arc_consistency(inst, strategy="columnar")
    assert (
        sac_naive.consistent
        == sac_res.consistent
        == sac_int.consistent
        == sac_col.consistent
    ), f"sac verdict, seed {seed}"
    if sac_naive.consistent:
        assert sac_naive.domains == sac_res.domains, f"sac domains, seed {seed}"
    assert sac_res.domains == sac_int.domains, f"sac interned domains, seed {seed}"
    assert sac_int.domains == sac_col.domains, f"sac columnar domains, seed {seed}"

    from repro.consistency.arc import path_consistency

    pc_naive = path_consistency(inst, strategy="naive")
    pc_res = path_consistency(inst, strategy="residual")
    pc_int = path_consistency(inst, strategy="interned")
    pc_col = path_consistency(inst, strategy="columnar")
    assert (pc_naive is None) == (pc_res is None) == (pc_int is None) == (
        pc_col is None
    ), f"pc verdict, seed {seed}"
    assert _canonical_pc(pc_naive) == _canonical_pc(pc_res), f"pc output, seed {seed}"
    if pc_res is not None:
        # The interned engine decodes back to the *identical* instance, not
        # just a canonically-equal one — and "columnar" (which aliases the
        # code-space PC path) matches it constraint for constraint.
        assert pc_int.variables == pc_res.variables, f"pc vars, seed {seed}"
        assert pc_int.domain == pc_res.domain, f"pc domain, seed {seed}"
        assert set(pc_int.constraints) == set(pc_res.constraints), (
            f"pc constraints, seed {seed}"
        )
        assert set(pc_col.constraints) == set(pc_int.constraints), (
            f"pc columnar constraints, seed {seed}"
        )


@pytest.mark.parametrize("seed", range(25))
def test_pebble_strategies_identical(seed):
    """Naive and residual pebble-game prunings reach the same greatest
    fixpoint — the literal strategy sets, not just the winner."""
    from repro.games.pebble import largest_winning_strategy

    inst = random_instance(seed + 7000)
    a, b = csp_to_homomorphism(inst)
    for k in (1, 2):
        naive = largest_winning_strategy(a, b, k, strategy="naive")
        residual = largest_winning_strategy(a, b, k, strategy="residual")
        interned = largest_winning_strategy(a, b, k, strategy="interned")
        columnar = largest_winning_strategy(a, b, k, strategy="columnar")
        assert naive == residual, f"pebble k={k}, seed {seed}"
        assert residual == interned, f"pebble interned k={k}, seed {seed}"
        assert interned == columnar, f"pebble columnar k={k}, seed {seed}"


@pytest.mark.parametrize("seed", range(20))
def test_mac_strategies_agree_and_solutions_valid(seed):
    """MAC search under all propagation strategies: same verdict, any
    solution found must actually solve the instance, and all strategies
    return the *identical* solution — they explore the same search tree
    (the interned engine enumerates codes in ascending order, which is the
    original values' repr order)."""
    inst = random_instance(seed + 8000)
    norm = inst.normalize()
    solutions = {}
    for strategy in ("naive", "residual", "interned", "columnar"):
        stats = backtracking.solve_with_stats(inst, Inference.MAC, strategy=strategy)
        solutions[strategy] = stats.solution
        if stats.solution is not None:
            assert norm.is_solution(stats.solution), f"{strategy}, seed {seed}"
    assert (
        solutions["naive"]
        == solutions["residual"]
        == solutions["interned"]
        == solutions["columnar"]
    ), f"seed {seed}"


@pytest.mark.parametrize("seed", range(15))
def test_serialization_preserves_all_verdicts(seed):
    from repro.io import instance_from_json, instance_to_json

    inst = random_instance(seed + 5000)
    restored = instance_from_json(instance_to_json(inst))
    assert brute.is_solvable(restored) == brute.is_solvable(inst)
    assert decomposition.count_solutions(restored) == decomposition.count_solutions(inst)
