"""Partial MaxSAT formula representation, DIMACS WCNF parsing and evaluation.

Literals are signed integers: variable `v` appears as `v` (positive) or `-v`
(negated), so negation is unary minus and `abs(lit)` is the variable index.
Clauses are tuples of literals; formulas are immutable after construction and
safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass


class WcnfError(ValueError):
    """Raised for malformed WCNF input or ill-formed clauses."""


def normalize_clause(lits, num_vars: int) -> tuple[int, ...]:
    """Deduplicate literals, reject tautologies and out-of-range variables."""
    if not lits:
        raise WcnfError("empty clause")
    seen: list[int] = []
    for lit in lits:
        v = abs(lit)
        if lit == 0 or v > num_vars:
            raise WcnfError(f"literal {lit} out of range (num_vars={num_vars})")
        if -lit in seen:
            raise WcnfError(f"tautological clause: {list(lits)}")
        if lit not in seen:
            seen.append(lit)
    return tuple(seen)


@dataclass(frozen=True)
class WcnfFormula:
    """A partial MaxSAT instance: hard clauses plus unit-weight soft clauses."""

    num_vars: int
    hard: tuple[tuple[int, ...], ...]
    soft: tuple[tuple[int, ...], ...]

    @property
    def num_soft(self) -> int:
        return len(self.soft)


@dataclass(frozen=True)
class RelaxedFormula:
    """The relaxation of a WcnfFormula.

    Each soft clause gets a fresh relaxation variable appended; setting that
    variable true "pays for" violating the clause.  `clauses` is the full CNF
    (hard clauses followed by the extended soft clauses).
    """

    base: WcnfFormula
    clauses: tuple[tuple[int, ...], ...]
    relax_vars: tuple[int, ...]

    @property
    def num_vars(self) -> int:
        return self.base.num_vars + len(self.relax_vars)

    @property
    def relax_map(self) -> dict[int, int]:
        """Map relaxation variable -> index of its soft clause."""
        return {r: j for j, r in enumerate(self.relax_vars)}


def make_formula(num_vars: int, hard, soft) -> WcnfFormula:
    """Build a WcnfFormula from iterables of literal lists, validating both."""
    h = tuple(normalize_clause(c, num_vars) for c in hard)
    s = tuple(normalize_clause(c, num_vars) for c in soft)
    return WcnfFormula(num_vars, h, s)


def parse_wcnf(text: str) -> WcnfFormula:
    """Parse classic DIMACS WCNF ("p wcnf <vars> <clauses> <top>").

    Weight `top` marks a hard clause, weight 1 a soft clause; anything else is
    rejected because only partial MaxSAT is supported.
    """
    num_vars = None
    declared = None
    top = None
    hard: list[tuple[int, ...]] = []
    soft: list[tuple[int, ...]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise WcnfError(f"line {lineno}: duplicate header")
            tokens = line.split()
            if len(tokens) != 5 or tokens[1] != "wcnf":
                raise WcnfError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, declared, top = (int(t) for t in tokens[2:])
            except ValueError:
                raise WcnfError(f"line {lineno}: non-integer header field") from None
            if num_vars < 0 or declared < 0 or top < 2:
                raise WcnfError(f"line {lineno}: bad header values {line!r}")
            continue
        if num_vars is None:
            raise WcnfError(f"line {lineno}: clause before header")
        tokens = line.split()
        try:
            nums = [int(t) for t in tokens]
        except ValueError:
            raise WcnfError(f"line {lineno}: non-integer token in clause") from None
        if len(nums) < 2 or nums[-1] != 0:
            raise WcnfError(f"line {lineno}: clause not terminated by 0")
        weight, lits = nums[0], nums[1:-1]
        if 0 in lits:
            raise WcnfError(f"line {lineno}: literal 0 inside clause")
        clause = normalize_clause(lits, num_vars)
        if weight == top:
            hard.append(clause)
        elif weight == 1:
            soft.append(clause)
        else:
            raise WcnfError(f"line {lineno}: weight {weight} not in {{1, {top}}}")

    if num_vars is None:
        raise WcnfError("missing header")
    if len(hard) + len(soft) != declared:
        raise WcnfError(
            f"clause count mismatch: header says {declared}, found {len(hard) + len(soft)}"
        )
    return WcnfFormula(num_vars, tuple(hard), tuple(soft))


def serialize_wcnf(f: WcnfFormula) -> str:
    """Write a formula back to DIMACS WCNF; parse(serialize(f)) == f."""
    top = f.num_soft + 2
    lines = [f"p wcnf {f.num_vars} {len(f.hard) + len(f.soft)} {top}"]
    for clause in f.hard:
        lines.append(f"{top} " + " ".join(str(l) for l in clause) + " 0")
    for clause in f.soft:
        lines.append("1 " + " ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def relax(f: WcnfFormula) -> RelaxedFormula:
    """Append a fresh relaxation variable to every soft clause."""
    relax_vars = tuple(range(f.num_vars + 1, f.num_vars + 1 + len(f.soft)))
    clauses = list(f.hard)
    for clause, r in zip(f.soft, relax_vars):
        clauses.append(clause + (r,))
    return RelaxedFormula(base=f, clauses=tuple(clauses), relax_vars=relax_vars)


def clause_satisfied(clause: tuple[int, ...], assignment: dict[int, bool]) -> bool:
    return any(assignment.get(abs(l)) == (l > 0) for l in clause)


def cost(f: WcnfFormula, assignment: dict[int, bool]) -> int:
    """Number of soft clauses falsified by a total, hard-satisfying assignment."""
    for v in range(1, f.num_vars + 1):
        if v not in assignment:
            raise ValueError(f"assignment not total: variable {v} unassigned")
    for clause in f.hard:
        if not clause_satisfied(clause, assignment):
            raise ValueError(f"assignment violates hard clause {clause}")
    return sum(1 for clause in f.soft if not clause_satisfied(clause, assignment))


def model_literals(f: WcnfFormula, assignment: dict[int, bool]) -> list[int]:
    """Assignment as signed literals over the original variables (for "v" lines)."""
    return [v if assignment[v] else -v for v in range(1, f.num_vars + 1)]

