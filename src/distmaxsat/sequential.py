"""Sequential partial MaxSAT algorithms: linear SAT/UNSAT search, MSU3 and OLL.

`linear_su` drives an upper bound downward from satisfying assignments;
`msu3` and `oll` drive a lower bound upward from unsat cores.  `msu3` runs on
a `CoreGuided` state: an engine over `relax(f)`, one totalizer over a relaxed
set R, and R.  `oll` builds a state of its own on each call, and a
distributed worker runs it on every task, a guiding path, the whole formula
or a bound probe, so nothing carries from one cell to the next.
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


class Core(namedtuple("Core", "softs bound")):
    """An unsat `CoreGuided.call`: `softs`, its soft clauses outside R (now in
    R); `bound`, it holds the at-most literal.  Neither: the hard clauses
    alone are unsatisfiable."""

    __slots__ = ()


class CoreGuided:
    """An engine over `relax(f)`, one totalizer over the relaxed set R, and R:
    the state of standalone `msu3`.

    A soft clause outside R is enforced by assuming its relaxation variable
    false.  Totalizer clauses only add fresh variables, which any model of
    `relax(f)` satisfies with each output set to its count, and learned
    clauses follow from the rest: a model or core found here holds for `f`,
    whatever bounds and R earlier calls used.
    """

    def __init__(self, f: WcnfFormula, seed: int = 0):
        self.f = f
        rf = relax(f)
        self.relax_vars = rf.relax_vars
        self.engine = Engine(rf.clauses, num_vars=rf.num_vars, seed=seed)
        self.totalizer = Totalizer(self.engine)
        self.relaxed: set[int] = set()  # R: relaxation variables whose clauses may be violated

    def call(self, b: int, deadline=None, clock=None) -> Sat | Core:
        """One SAT call with every soft clause outside R enforced and at most
        b violated in R.  A core's soft clauses outside R join R."""
        enforce = [-r for r in self.relax_vars if r not in self.relaxed]
        at_most = self.totalizer.at_most(b)
        result = self.engine.solve(enforce + at_most, deadline=deadline, clock=clock, model_vars=self.f.num_vars)
        if isinstance(result, Sat):
            return result
        core = result.core
        # The bound literal is told apart by identity: a totalizer over one
        # input has that input, a relaxation variable in R, as its output.
        softs = tuple(sorted(-l for l in core if l not in at_most))
        self.relaxed.update(softs)
        self.totalizer.extend(softs)
        return Core(softs, any(l in core for l in at_most))


def msu3(f: WcnfFormula, on_lower_bound=None, seed: int = 0, deadline=None, clock=None) -> OptOutcome:
    """Core-guided search: relax only the soft clauses that appear in cores.

    Each unsat core moves its soft clauses into the relaxed set and the lower
    bound λ grows by one; the next call merges them into the one totalizer and
    raises its k to the new bound, so nothing is re-encoded.

    Invariant: every model of the hard clauses violates at least λ soft
    clauses in R.  A core with soft clauses outside R keeps it at λ + 1: a
    model violates one of them, which now joins R, or satisfies them all and
    so exceeds λ in R.  `on_lower_bound(λ)` hears each λ, and `num_soft + 1`
    when a core holds neither a soft clause nor the bound: the hard clauses
    alone are unsatisfiable.
    """
    state = CoreGuided(f, seed=seed)
    lam = 0
    while True:
        answer = state.call(lam, deadline=deadline, clock=clock)
        if isinstance(answer, Sat):
            return Optimum(cost(f, answer.model), answer.model)
        if not answer.softs and not answer.bound:
            if on_lower_bound is not None:
                on_lower_bound(f.num_soft + 1)
            return HardUnsat()
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
