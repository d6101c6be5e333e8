"""Seeded instance families and the benchmark's own cost evaluator.

Every instance carries its clauses as the generator built them, so the
evaluator below checks returned models against those clauses without calling
anything in `distmaxsat.formula`.  The solvers receive only the WCNF text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from distmaxsat import oracle
from distmaxsat.formula import WcnfFormula

UNSAT = "unsat"


@dataclass(frozen=True)
class Instance:
    name: str
    num_vars: int
    hard: tuple[tuple[int, ...], ...]
    soft: tuple[tuple[int, ...], ...]
    planted: int | None = None  # optimum known by construction

    @property
    def text(self) -> str:
        return to_wcnf(self.num_vars, self.hard, self.soft)


def to_wcnf(num_vars: int, hard, soft) -> str:
    top = len(soft) + 2
    lines = [f"p wcnf {num_vars} {len(hard) + len(soft)} {top}"]
    lines += [f"{top} {' '.join(map(str, c))} 0" for c in hard]
    lines += [f"1 {' '.join(map(str, c))} 0" for c in soft]
    return "\n".join(lines) + "\n"


def recost(inst: Instance, model: dict[int, bool]) -> int | None:
    """Falsified soft clauses under `model`, or None if the model is not total
    over the instance's variables or falsifies a hard clause."""
    if any(v not in model for v in range(1, inst.num_vars + 1)):
        return None

    def holds(clause):
        return any(model[abs(l)] == (l > 0) for l in clause)

    if not all(holds(c) for c in inst.hard):
        return None
    return sum(1 for c in inst.soft if not holds(c))


def random_instance(name: str, seed: int, num_vars: int, num_hard: int, num_soft: int) -> Instance:
    """`oracle.gen_random` with clause length 3, as the instance families use it."""
    f = oracle.gen_random(seed, num_vars, num_hard, num_soft, 3)
    return Instance(name, f.num_vars, f.hard, f.soft)


def pigeonhole(name: str, rng: random.Random, blocks: int, holes: int) -> Instance:
    """`blocks` disjoint copies of PHP(holes+1, holes).

    "Pigeon p sits in some hole" is soft and "no two pigeons share a hole" is
    hard.  Each block can seat all pigeons but one, so the optimum is exactly
    `blocks`.  The seed permutes variable numbers, literal order and clause
    order, so equal shapes still give the solvers different inputs.
    """
    pigeons = holes + 1
    num_vars = blocks * pigeons * holes
    perm = list(range(1, num_vars + 1))
    rng.shuffle(perm)
    hard: list[tuple[int, ...]] = []
    soft: list[tuple[int, ...]] = []
    for b in range(blocks):
        def x(p, h, _base=b * pigeons * holes):
            return perm[_base + p * holes + h]

        for p in range(pigeons):
            soft.append(tuple(x(p, h) for h in range(holes)))
        for h in range(holes):
            for p in range(pigeons):
                for q in range(p + 1, pigeons):
                    hard.append((-x(p, h), -x(q, h)))
    for clauses in (hard, soft):
        for i, c in enumerate(clauses):
            c = list(c)
            rng.shuffle(c)
            clauses[i] = tuple(c)
        rng.shuffle(clauses)
    return Instance(name, num_vars, tuple(hard), tuple(soft), planted=blocks)


def brute_force_reference(inst: Instance):
    """`oracle.brute_force` on the instance, as an int cost or UNSAT."""
    ref = oracle.brute_force(WcnfFormula(inst.num_vars, inst.hard, inst.soft))
    return UNSAT if ref == oracle.HARD_UNSAT else ref
