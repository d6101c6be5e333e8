"""Distributed partial MaxSAT solving: sequential algorithms, search-space
splitting over optimum bounds, and lookahead-generated guiding paths."""

from .formula import (
    WcnfFormula,
    RelaxedFormula,
    WcnfError,
    parse_wcnf,
    serialize_wcnf,
    relax,
    cost,
    make_formula,
)
from .engine import Engine, Sat, Unsat
from .cardinality import AtMostEncoding, encode_totalizer, bound_assumptions
from .sequential import OptOutcome, Optimum, HardUnsat, linear_su, msu3, oll
from .oracle import brute_force, gen_random, HARD_UNSAT

__all__ = [
    "WcnfFormula",
    "RelaxedFormula",
    "WcnfError",
    "parse_wcnf",
    "serialize_wcnf",
    "relax",
    "cost",
    "make_formula",
    "Engine",
    "Sat",
    "Unsat",
    "AtMostEncoding",
    "encode_totalizer",
    "bound_assumptions",
    "OptOutcome",
    "Optimum",
    "HardUnsat",
    "linear_su",
    "msu3",
    "oll",
    "brute_force",
    "gen_random",
    "HARD_UNSAT",
]
