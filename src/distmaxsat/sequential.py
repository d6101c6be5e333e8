"""Sequential partial MaxSAT algorithms: linear SAT/UNSAT search and MSU3.

`linear_su` drives an upper bound downward from satisfying assignments;
`msu3` drives a lower bound upward from unsat cores, on a `CoreGuided` state:
an engine over `relax(f)`, one totalizer over a relaxed set R, and R.  A
distributed worker keeps one such state for all its tasks (bound probes and
guiding paths too), so learned clauses, R and the totalizer carry over.
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


class Core(namedtuple("Core", "softs bound cube")):
    """An unsat `CoreGuided.call`: `softs`, its soft clauses outside R (now in
    R); `bound`, it holds the at-most literal; `cube`, it holds a cube
    literal.  None of the three: the hard clauses alone are unsatisfiable."""

    __slots__ = ()


class CoreGuided:
    """An engine over `relax(f)`, one totalizer over the relaxed set R, and R.

    A soft clause outside R is enforced by assuming its relaxation variable
    false.  Totalizer clauses only add fresh variables, which any model of
    `relax(f)` satisfies with each output set to its count, and learned
    clauses follow from the rest: a model or core found here holds for `f`,
    whatever cubes, bounds and R earlier calls used.
    """

    def __init__(self, f: WcnfFormula, seed: int = 0):
        self.f = f
        rf = relax(f)
        self.relax_vars = rf.relax_vars
        self.engine = Engine(rf.clauses, num_vars=rf.num_vars, seed=seed)
        self.totalizer = Totalizer(self.engine)
        self.relaxed: set[int] = set()  # R: relaxation variables whose clauses may be violated

    def call(self, cube, b: int, deadline=None, clock=None) -> Sat | Core:
        """One SAT call under `cube`, every soft clause outside R, and at most
        b violated in R.  A core's soft clauses outside R join R."""
        enforce = [-r for r in self.relax_vars if r not in self.relaxed]
        at_most = self.totalizer.at_most(b)
        result = self.engine.solve(list(cube) + enforce + at_most, deadline=deadline, clock=clock,
                                   model_vars=self.f.num_vars)
        if isinstance(result, Sat):
            return result
        core, n = result.core, self.f.num_vars
        # The bound literal is told apart by identity: a totalizer over one
        # input has that input, a relaxation variable in R, as its output.
        softs = tuple(sorted(-l for l in core if -l > n and l not in at_most))
        self.relaxed.update(softs)
        self.totalizer.extend(softs)
        return Core(softs, any(l in core for l in at_most), any(abs(l) <= n for l in core))

    def msu3(self, cube=(), stop=None, on_lower_bound=None, deadline=None, clock=None) -> OptOutcome | None:
        """`msu3` under `cube`, from λ = 0: each core raises λ by one.

        Invariant: every model of the hard clauses and the cube violates at
        least λ soft clauses in R.  A core with soft clauses outside R keeps
        it at λ + 1: a model violates one of them, which now joins R, or
        satisfies them all and so exceeds λ in R.  R may come from earlier
        calls, since relaxing more only weakens each call.

        Returns the least-cost model under the cube, HardUnsat when a core
        holds neither a soft clause nor the bound (the cube or the hard
        clauses admit no model), or None once λ reaches `stop`.
        `on_lower_bound(λ)` hears each λ that holds for `f` as a whole: every
        λ while no core has used a cube literal, and `num_soft + 1` when the
        hard clauses alone are unsatisfiable.
        """
        lam = 0
        while stop is None or lam < stop:
            answer = self.call(cube, lam, deadline=deadline, clock=clock)
            if isinstance(answer, Sat):
                return Optimum(cost(self.f, answer.model), answer.model)
            if answer.cube:
                on_lower_bound = None  # from here on λ holds under the cube only
            if not answer.softs and not answer.bound:
                if on_lower_bound is not None:
                    on_lower_bound(self.f.num_soft + 1)
                return HardUnsat()
            lam += 1
            if on_lower_bound is not None:
                on_lower_bound(lam)
        return None


def msu3(f: WcnfFormula, on_lower_bound=None, seed: int = 0, deadline=None, clock=None) -> OptOutcome:
    """Core-guided search: relax only the soft clauses that appear in cores.

    Each unsat core moves its soft clauses into the relaxed set and the lower
    bound grows by one; the next call merges them into the one totalizer and
    raises its k to the new bound, so nothing is re-encoded.
    """
    return CoreGuided(f, seed=seed).msu3(on_lower_bound=on_lower_bound, deadline=deadline, clock=clock)
