"""Sequential partial MaxSAT algorithms: linear SAT/UNSAT search, MSU3 and OLL.

`linear_su` drives an upper bound downward from satisfying assignments;
`msu3` and `oll` drive a lower bound upward from unsat cores.  Each is one
loop over an engine of its own.  A distributed worker runs `oll` on every
task, a guiding path, the whole formula or a bound probe, so nothing carries
from one cell to the next.
"""

from __future__ import annotations

from collections import namedtuple

from .cardinality import Totalizer
from .engine import Engine, Sat, Unsat
from .formula import RelaxedFormula, WcnfFormula, cost, relax


Optimum = namedtuple("Optimum", "cost model")


class HardUnsat:
    """The hard clauses have no model."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, HardUnsat)

    def __hash__(self):
        return 0

    def __repr__(self):
        return "HardUnsat()"


OptOutcome = Optimum | HardUnsat


def linear_su(rf: RelaxedFormula, on_improve=None, seed: int = 0, deadline=None, clock=None) -> OptOutcome:
    """Iterate SAT calls, tightening the at-most bound after each solution.

    The first call is at the bound n (every soft clause).  The totalizer over
    all relaxation variables is built at the first bound below n (one under
    the first model's cost) and truncated there; later, smaller bounds are
    assumptions only.
    """
    f = rf.base
    engine = Engine(rf.clauses, num_vars=rf.num_vars, seed=seed)
    totalizer = Totalizer(engine, rf.relax_vars)
    bound = len(rf.relax_vars)
    best: Optimum | None = None
    while True:
        result = engine.solve(totalizer.at_most(bound), deadline=deadline, clock=clock, model_vars=f.num_vars)
        if isinstance(result, Unsat):
            return best or HardUnsat()
        found = cost(f, result.model)
        best = Optimum(found, result.model)
        if on_improve is not None:
            on_improve(found, result.model)
        if found == 0:
            return best
        bound = found - 1


def msu3(f: WcnfFormula, on_lower_bound=None, seed: int = 0, deadline=None, clock=None) -> OptOutcome:
    """Core-guided search: relax only the soft clauses that appear in cores.

    One engine over `relax(f)`, one totalizer over the relaxed set R, and R.
    Each SAT call assumes ¬r for every soft clause outside R, then at most λ
    violated in R.  Each unsat core moves its soft clauses into R and λ grows
    by one; the next call merges them into the totalizer and raises its k to
    the new λ, so nothing is re-encoded.  Totalizer clauses only add fresh
    variables, which any model of `relax(f)` satisfies with each output set to
    its count, and learned clauses follow from the rest: every model and core
    holds for `f`, whatever λ and R earlier calls used.

    Invariant: every model of the hard clauses violates at least λ soft
    clauses in R.  A core with soft clauses outside R keeps it at λ + 1: a
    model violates one of them, which now joins R, or satisfies them all and
    so exceeds λ in R.  `on_lower_bound(λ)` hears each λ, and `num_soft + 1`
    when a core is empty: the hard clauses alone are unsatisfiable.
    """
    rf = relax(f)
    engine = Engine(rf.clauses, num_vars=rf.num_vars, seed=seed)
    totalizer = Totalizer(engine)
    relaxed: set[int] = set()  # R: relaxation variables whose clauses may be violated
    lam = 0
    while True:
        enforce = [-r for r in rf.relax_vars if r not in relaxed]
        at_most = totalizer.at_most(lam)
        result = engine.solve(enforce + at_most, deadline=deadline, clock=clock, model_vars=f.num_vars)
        if isinstance(result, Sat):
            return Optimum(cost(f, result.model), result.model)
        if not result.core:
            if on_lower_bound is not None:
                on_lower_bound(f.num_soft + 1)
            return HardUnsat()
        # |R| >= λ, so a bound literal is a totalizer output over two or
        # more inputs, never a relaxation variable.
        softs = sorted(-l for l in result.core if l not in at_most)
        relaxed.update(softs)
        totalizer.extend(softs)
        lam += 1
        if on_lower_bound is not None:
            on_lower_bound(lam)


def oll(f: WcnfFormula, cube=(), stop=None, on_lower_bound=None, seed: int = 0, deadline=None,
        clock=None) -> OptOutcome | None:
    """OLL under `cube`, from λ = 0 on an engine of its own: each core raises
    λ by one (Andres, Kaufmann, Matheis and Schaub, ICLP 2012, in the
    soft-cardinality form of Morgado, Dodaro and Marques-Silva, CP 2014).

    Every soft clause starts as the assumption ¬r.  A core's assumptions are
    dropped.  A core of two or more gets a new totalizer over their
    negations, assumed at most 1, and a core that holds a totalizer's
    assumed bound ¬outputs[b] moves that totalizer to at most b + 1.

    Invariant: every model of the hard clauses and the cube violates at least
    λ soft clauses.  Indeed it violates at least λ plus one for each assumed
    soft clause it violates, plus, for each totalizer at bound b, its true
    inputs beyond b.  A model breaks k ≥ 1 of a core's assumptions: dropping
    them (a totalizer's bound moving to b + 1) takes k off that sum, the new
    totalizer at bound 1 puts k - 1 back, and λ + 1 makes up the rest.

    Returns the least-cost model under the cube, HardUnsat when a core holds
    no assumption beyond the cube (the cube or the hard clauses admit no
    model), or None once λ reaches `stop`.  `on_lower_bound(λ)` hears each λ
    that holds for `f` as a whole: every λ while no core has used a cube
    literal, and `num_soft + 1` when the hard clauses alone are
    unsatisfiable.
    """
    n = f.num_vars
    rf = relax(f)
    engine = Engine(rf.clauses, num_vars=rf.num_vars, seed=seed)
    # Each assumption, in the order it was made: None for a soft clause's ¬r,
    # (totalizer, b) for a totalizer's bound ¬outputs[b].
    assumed = dict.fromkeys(-r for r in rf.relax_vars)
    cube = list(cube)
    lam = 0
    while stop is None or lam < stop:
        result = engine.solve(cube + list(assumed), deadline=deadline, clock=clock, model_vars=n)
        if isinstance(result, Sat):
            return Optimum(cost(f, result.model), result.model)
        core = [l for l in assumed if l in result.core]
        if len(core) < len(result.core):
            on_lower_bound = None  # a cube literal: from here on λ holds under the cube only
        if not core:
            if on_lower_bound is not None:
                on_lower_bound(f.num_soft + 1)
            return HardUnsat()
        for l in core:
            bound = assumed.pop(l)
            if bound is not None:
                totalizer, b = bound
                _assume_at_most(assumed, totalizer, b + 1)
        if len(core) > 1:
            _assume_at_most(assumed, Totalizer(engine, [-l for l in core]), 1)
        lam += 1
        if on_lower_bound is not None:
            on_lower_bound(lam)
    return None


def _assume_at_most(assumed: dict, totalizer: Totalizer, b: int) -> None:
    """Assume at most b of the totalizer's inputs true; nothing once b covers them all."""
    for l in totalizer.at_most(b):
        assumed[l] = (totalizer, b)
