"""Ground-truth brute-force MaxSAT solving and random instance generation.

The brute-force solver enumerates every total assignment, with no pruning,
so it is trivially auditable.  It works bit-parallel on Python ints: bit `a`
of a variable's column is that variable's value in assignment `a` (bit v-1 of
`a` is variable v).  A clause is then the OR of its literals' columns, the
hard-clause check is an AND, and soft violations are summed in a bit-sliced
counter, one int per bit of the count.  Everything else in the package is
measured against this module; it imports nothing outside the standard
library.
"""

from __future__ import annotations

import random

from .formula import WcnfFormula, make_formula

HARD_UNSAT = "hard-unsat"

MAX_ORACLE_VARS = 24


def _columns(num_vars: int) -> tuple[int, list[int]]:
    """(all-ones over the 2**num_vars assignments, [0, column of var 1, ...])."""
    n = 1 << num_vars
    full = (1 << n) - 1
    columns = [0]
    for i in range(num_vars):
        half = 1 << i
        col = ((1 << half) - 1) << half  # one period: 2**i zeros, then 2**i ones
        width = 2 * half
        while width < n:
            col |= col << width
            width *= 2
        columns.append(col)
    return full, columns


def _enumeration(f: WcnfFormula):
    """(all-ones, clause -> satisfied-bits function, bits of assignments satisfying φH)."""
    if f.num_vars > MAX_ORACLE_VARS:
        raise ValueError(f"too many variables for enumeration: {f.num_vars}")
    full, columns = _columns(f.num_vars)

    def satisfied(clause) -> int:
        bits = 0
        for lit in clause:
            bits |= columns[lit] if lit > 0 else full ^ columns[-lit]
        return bits

    hard_ok = full
    for clause in f.hard:
        hard_ok &= satisfied(clause)
    return full, satisfied, hard_ok


def brute_force(f: WcnfFormula):
    """Exact optimum cost of `f`, or HARD_UNSAT if no assignment satisfies φH."""
    full, satisfied, hard_ok = _enumeration(f)
    if not hard_ok:
        return HARD_UNSAT
    planes: list[int] = []  # planes[j]: bit j of each assignment's violation count
    for clause in f.soft:
        carry = full ^ satisfied(clause)
        for j in range(len(planes)):
            if not carry:
                break
            planes[j], carry = planes[j] ^ carry, planes[j] & carry
        if carry:
            planes.append(carry)
    # The least count among hard-satisfying assignments, top bit first: keep
    # the candidates with a 0 there whenever any exist.
    best, candidates = 0, hard_ok
    for j in range(len(planes) - 1, -1, -1):
        zero = candidates & ~planes[j]
        if zero:
            candidates = zero
        else:
            best |= 1 << j
    return best


def hard_models(f: WcnfFormula) -> list[int]:
    """All assignments (as bitmasks, bit v-1 = var v) satisfying every hard clause, ascending."""
    _full, _satisfied, hard_ok = _enumeration(f)
    return [a for a, bit in enumerate(reversed(bin(hard_ok)[2:])) if bit == "1"]


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
