"""Ground-truth brute-force MaxSAT solving and random instance generation.

The brute-force solver enumerates every total assignment (no pruning), so it
is trivially auditable; numpy only vectorizes the per-assignment clause
checks.  Everything else in the package is measured against this module.
numpy is imported only when an enumeration runs, so the solver itself never
loads it.
"""

from __future__ import annotations

import random

from .formula import WcnfFormula, make_formula

HARD_UNSAT = "hard-unsat"

MAX_ORACLE_VARS = 24


def _satisfied_mask(clause: tuple[int, ...], assignments):
    """Boolean vector over all assignments: does this clause hold?"""
    sat = None
    for lit in clause:
        bit = ((assignments >> (abs(lit) - 1)) & 1).astype(bool)
        holds = bit if lit > 0 else ~bit
        sat = holds if sat is None else sat | holds
    return sat


def _hard_ok(f: WcnfFormula):
    """Every assignment as a bitmask (bit v-1 = var v), and which satisfy φH."""
    import numpy as np

    if f.num_vars > MAX_ORACLE_VARS:
        raise ValueError(f"too many variables for enumeration: {f.num_vars}")
    assignments = np.arange(1 << f.num_vars, dtype=np.int64)
    hard_ok = np.ones(assignments.shape, dtype=bool)
    for clause in f.hard:
        hard_ok &= _satisfied_mask(clause, assignments)
    return assignments, hard_ok


def brute_force(f: WcnfFormula):
    """Exact optimum cost of `f`, or HARD_UNSAT if no assignment satisfies φH."""
    import numpy as np

    assignments, hard_ok = _hard_ok(f)
    if not hard_ok.any():
        return HARD_UNSAT
    violations = np.zeros(assignments.shape, dtype=np.int32)
    for clause in f.soft:
        violations += ~_satisfied_mask(clause, assignments)
    return int(violations[hard_ok].min())


def hard_models(f: WcnfFormula) -> list[int]:
    """All assignments (as bitmasks, bit v-1 = var v) satisfying every hard clause."""
    assignments, hard_ok = _hard_ok(f)
    return [int(m) for m in assignments[hard_ok]]


def _random_clause(rng: random.Random, num_vars: int, length: int) -> list[int]:
    variables = rng.sample(range(1, num_vars + 1), length)
    return [v if rng.random() < 0.5 else -v for v in variables]


def gen_random(
    seed: int,
    num_vars: int,
    num_hard: int,
    num_soft: int,
    clause_len: int,
) -> WcnfFormula:
    """Seeded random partial MaxSAT instance with no tautologies or duplicate lits.

    Clause lengths vary between 1 and `clause_len`, biased toward the longer
    end so unit clauses stay rare.
    """
    if num_vars < 1 or num_hard < 0 or num_soft < 0:
        raise ValueError("instance parameters must be positive")
    if clause_len < 1 or clause_len > num_vars:
        raise ValueError(f"clause_len {clause_len} infeasible for {num_vars} vars")
    rng = random.Random(seed)
    hard = [
        _random_clause(rng, num_vars, rng.randint(max(1, clause_len - 1), clause_len))
        for _ in range(num_hard)
    ]
    soft = [
        _random_clause(rng, num_vars, rng.randint(1, clause_len))
        for _ in range(num_soft)
    ]
    return make_formula(num_vars, hard, soft)
