import itertools
import random
from collections import defaultdict

import pytest

from distmaxsat.engine import Engine
from distmaxsat.formula import make_formula
from distmaxsat.lookahead import CUTOFF_GROWTH, CUTOFF_SHRINK
from distmaxsat.oracle import _enumeration


def assignment_from_mask(mask: int, num_vars: int) -> dict[int, bool]:
    return {v: bool((mask >> (v - 1)) & 1) for v in range(1, num_vars + 1)}


def clause_holds(clause, assignment: dict[int, bool]) -> bool:
    """Some literal of `clause` is true under `assignment`: the evaluator
    that `formula.cost` is checked against."""
    return any(assignment.get(abs(l)) == (l > 0) for l in clause)


def hard_models(f) -> list[int]:
    """All assignments (as bitmasks, bit v-1 = var v) satisfying every hard clause, ascending."""
    _full, _satisfied, hard_ok = _enumeration(f)
    return [a for a, bit in enumerate(reversed(bin(hard_ok)[2:])) if bit == "1"]


def replay_theta_trace(trace) -> bool:
    """Recompute every θ value of a path generator's trace from the recorded
    operations; exact match only."""
    theta = None
    for op, value in trace:
        if op == "init":
            theta = value
        elif op == "grow":
            theta = theta * CUTOFF_GROWTH
        elif op == "shrink":
            theta = theta * CUTOFF_SHRINK
        elif op not in ("emit", "frontier", "conflict"):
            return False
        if theta != value:
            return False
    return True


def naive_propagate(clauses, decisions):
    """Repeated-scan unit propagation; returns (implied set, conflict flag).

    Independent oracle for the engine's watched-literal propagation: scan all
    clauses until fixpoint, no watch lists involved.
    """
    assigned = {}
    for lit in decisions:
        assigned[abs(lit)] = lit > 0
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = []
            satisfied = False
            for lit in clause:
                val = assigned.get(abs(lit))
                if val is None:
                    unassigned.append(lit)
                elif val == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return None, True
            if len(unassigned) == 1:
                lit = unassigned[0]
                assigned[abs(lit)] = lit > 0
                changed = True
    implied = {v if pos else -v for v, pos in assigned.items()}
    implied -= set(decisions)
    return implied, False


def scan_pick_branch(engine) -> int:
    """The branching rule as a scan of every variable: the unassigned one of
    highest activity, then highest `tie_rank`, then lowest index, in its saved
    phase; 0 when every variable is assigned.  Oracle for `_pick_branch`."""
    best = 0
    best_act = best_tie = -1.0
    for v in range(1, engine.num_vars + 1):
        if engine.assigns[v] == 0:
            act = engine.activity[v]
            if act > best_act or (act == best_act and engine.tie_rank[v] > best_tie):
                best, best_act, best_tie = v, act, engine.tie_rank[v]
    if best == 0:
        return 0
    return best if engine.phase[best] else -best


def brute_force_sat(clauses, num_vars, assumptions=()):
    """Enumerate all assignments; return a satisfying model dict or None."""
    fixed = {abs(l): l > 0 for l in assumptions}
    if len(fixed) != len(set(abs(l) for l in assumptions)):
        pass  # complementary assumptions: no model will match
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if any(model[v] != want for v, want in fixed.items()):
            continue
        if any(-l in assumptions and l in assumptions for l in assumptions):
            continue
        if all(clause_holds(c, model) for c in clauses):
            return model
    return None


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int, max_len: int = 3):
    clauses = []
    for _ in range(num_clauses):
        length = min(num_vars, rng.choice([2] + [max_len] * 4))
        variables = rng.sample(range(1, num_vars + 1), length)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return clauses


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def learned(monkeypatch):
    """Every clause each engine learns during the test, in learning order:
    a mapping engine -> list of literal tuples."""
    log = defaultdict(list)
    record = Engine._record_learned

    def spy(engine, learnt, backtrack):
        log[engine].append(tuple(learnt))
        return record(engine, learnt, backtrack)

    monkeypatch.setattr(Engine, "_record_learned", spy)
    return log


def pigeonhole(blocks: int, holes: int = 4):
    """`blocks` disjoint copies of PHP(holes+1, holes): "pigeon p sits in some
    hole" is soft and "no two pigeons share a hole" is hard, so each block
    leaves exactly one pigeon out and the optimum is `blocks`."""
    pigeons = holes + 1
    hard, soft = [], []
    for b in range(blocks):
        def x(p, h, _base=b * pigeons * holes):
            return _base + p * holes + h + 1

        soft += [[x(p, h) for h in range(holes)] for p in range(pigeons)]
        hard += [
            [-x(p, h), -x(q, h)]
            for h in range(holes) for p in range(pigeons) for q in range(p + 1, pigeons)
        ]
    return make_formula(blocks * pigeons * holes, hard, soft)


def hard_pigeonhole(holes: int):
    """PHP(holes+1, holes) with every clause hard, so the hard clauses have
    no model, and "pigeon p is not in hole 0" soft.  CDCL proves it
    unsatisfiable in well under a second up to 6 holes, and in about a minute
    at 8."""
    pigeons = holes + 1

    def x(p, h):
        return p * holes + h + 1

    hard = [[x(p, h) for h in range(holes)] for p in range(pigeons)]
    hard += [[-x(p, h), -x(q, h)] for h in range(holes) for p in range(pigeons) for q in range(p + 1, pigeons)]
    return make_formula(pigeons * holes, hard, [[-x(p, 0)] for p in range(pigeons)])
