import pytest

from distmaxsat.formula import make_formula, parse_wcnf, serialize_wcnf
from distmaxsat.oracle import HARD_UNSAT, brute_force, gen_random

from conftest import assignment_from_mask, clause_holds, hard_models


def test_brute_force_two_var_example():
    f = make_formula(2, [[1, 2]], [[-1], [-2]])
    assert brute_force(f) == 1


def test_brute_force_no_soft():
    f = make_formula(2, [[1, 2]], [])
    assert brute_force(f) == 0


def test_brute_force_hard_unsat():
    f = make_formula(1, [[1], [-1]], [])
    assert brute_force(f) == HARD_UNSAT


def test_brute_force_guard():
    f = make_formula(25, [[1]], [])
    with pytest.raises(ValueError, match="too many"):
        brute_force(f)


def test_brute_force_agrees_with_pure_python():
    # Cross-check the bit-parallel enumeration against a literal one, over
    # every column period from 1 to 8 variables.
    for seed in range(24):
        num_vars = 1 + seed % 8
        f = gen_random(seed, num_vars, num_hard=num_vars + 1, num_soft=num_vars, clause_len=min(3, num_vars))
        best = None
        for mask in range(1 << f.num_vars):
            a = assignment_from_mask(mask, f.num_vars)
            if all(clause_holds(c, a) for c in f.hard):
                viol = sum(0 if clause_holds(c, a) else 1 for c in f.soft)
                best = viol if best is None else min(best, viol)
        assert brute_force(f) == (HARD_UNSAT if best is None else best)


def test_hard_models_enumeration():
    f = make_formula(2, [[1, 2]], [])
    assert sorted(hard_models(f)) == [1, 2, 3]


def test_gen_random_deterministic():
    a = gen_random(42, 8, 10, 5, 3)
    b = gen_random(42, 8, 10, 5, 3)
    assert a == b
    c = gen_random(43, 8, 10, 5, 3)
    assert a != c


def test_gen_random_pure_sat():
    f = gen_random(7, 6, 8, 0, 3)
    assert f.soft == ()


def test_gen_random_infeasible_params():
    with pytest.raises(ValueError):
        gen_random(1, 3, 2, 2, 5)


def test_gen_random_batch_roundtrips():
    for seed in range(500):
        num_vars = 1 + seed % 10
        f = gen_random(seed, num_vars, 1 + seed % 7, seed % 5, min(3, num_vars))
        assert parse_wcnf(serialize_wcnf(f)) == f
