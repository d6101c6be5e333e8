"""Sequential partial MaxSAT algorithms: linear SAT/UNSAT search and MSU3.

Both are used standalone and as worker payloads.  `linear_su` drives an upper
bound downward from satisfying assignments; `msu3` drives a lower bound upward
from unsat cores.  Each of the two owns its engine, so concurrent invocations
in separate workers never share state.  `linear_search` is `linear_su`'s loop
on an engine the caller keeps, which is how a gp worker carries its learned
clauses and totalizer from one path task to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cardinality import Totalizer
from .engine import Engine, Sat, Unsat
from .formula import RelaxedFormula, WcnfFormula, cost, relax


@dataclass(frozen=True)
class Optimum:
    cost: int
    model: dict[int, bool]


@dataclass(frozen=True)
class HardUnsat:
    pass


@dataclass(frozen=True)
class NoImprovement:
    """Nothing under the given bound; `proof_independent` is true when the
    final unsat core avoided every supplied path literal."""

    proof_independent: bool


OptOutcome = Optimum | HardUnsat | NoImprovement


def linear_su(
    rf: RelaxedFormula,
    on_improve=None,
    seed: int = 0,
    deadline=None,
    clock=None,
) -> OptOutcome:
    """`linear_search` on a fresh engine over `rf`, from the bound n (every soft clause).

    The totalizer over all relaxation variables is built at the first bound
    below n (one under the first model's cost) and truncated there; later,
    smaller bounds are assumptions only.
    """
    engine = Engine(rf.clauses, num_vars=rf.num_vars, seed=seed)
    totalizer = Totalizer(engine, rf.relax_vars)
    return linear_search(totalizer, rf.base, len(rf.relax_vars), on_improve=on_improve, deadline=deadline, clock=clock)


def linear_search(
    totalizer: Totalizer,
    f: WcnfFormula,
    bound: int,
    path=(),
    on_improve=None,
    deadline=None,
    clock=None,
) -> OptOutcome:
    """Iterate SAT calls, tightening the at-most bound after each solution.

    `totalizer` counts the relaxation variables of `f`'s soft clauses inside
    an engine that holds `relax(f)`'s clauses, and it may hold more from
    earlier searches.  Totalizer clauses only add fresh variables, and any
    model of `relax(f)` satisfies them with those set true; learned clauses
    follow from the rest.  So a model or a core found here holds for `f`.
    The first call is at `bound`; `path` literals ride along as extra
    assumptions on every call.
    """
    engine = totalizer.engine
    path = list(path)
    best: Optimum | None = None
    while True:
        assumptions = path + totalizer.at_most(bound)
        result = engine.solve(assumptions, deadline=deadline, clock=clock, model_vars=f.num_vars)
        if isinstance(result, Sat):
            found = cost(f, result.model)
            best = Optimum(found, result.model)
            if on_improve is not None:
                on_improve(found, result.model)
            if found == 0:
                return best
            bound = found - 1
            continue
        assert isinstance(result, Unsat)
        if best is not None:
            return best
        if not assumptions:
            return HardUnsat()
        return NoImprovement(proof_independent=not (result.core & set(path)))


def msu3(
    f: WcnfFormula,
    on_lower_bound=None,
    seed: int = 0,
    deadline=None,
    clock=None,
) -> OptOutcome:
    """Core-guided search: relax only the soft clauses that appear in cores.

    All soft clauses carry a relaxation variable up front; "unrelaxed" clauses
    are enforced by assuming their variable false.  Each unsat core moves its
    soft clauses into the relaxed set and the lower bound grows by one; the
    next call merges them into the one totalizer and raises its k to the new
    bound, so nothing is re-encoded.
    """
    rf = relax(f)
    soft_vars = set(rf.relax_vars)
    engine = Engine(rf.clauses, num_vars=rf.num_vars, seed=seed)
    totalizer = Totalizer(engine)

    relaxed: set[int] = set()  # relaxation variables whose clauses may be violated
    lam = 0
    while True:
        enforce = [-r for r in rf.relax_vars if r not in relaxed]
        result = engine.solve(enforce + totalizer.at_most(lam), deadline=deadline, clock=clock, model_vars=f.num_vars)
        if isinstance(result, Sat):
            return Optimum(cost(f, result.model), result.model)
        assert isinstance(result, Unsat)
        core_softs = sorted(-l for l in result.core if -l in soft_vars)
        bound_hit = any(l not in soft_vars and -l not in soft_vars for l in result.core)
        if not core_softs and not bound_hit:
            return HardUnsat()
        relaxed.update(core_softs)
        totalizer.extend(core_softs)
        lam += 1
        if on_lower_bound is not None:
            on_lower_bound(lam)
