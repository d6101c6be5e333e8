import random

import pytest

from distmaxsat.formula import cost, make_formula, relax
from distmaxsat.oracle import HARD_UNSAT, brute_force, gen_random
from distmaxsat.sequential import HardUnsat, NoImprovement, Optimum, linear_su, msu3


def test_linear_su_two_var_example():
    f = make_formula(2, [[1, 2]], [[-1], [-2]])
    outcome = linear_su(relax(f))
    assert isinstance(outcome, Optimum)
    assert outcome.cost == 1
    assert cost(f, outcome.model) == 1


def test_linear_su_hard_unsat():
    f = make_formula(1, [[1], [-1]], [[1]])
    assert isinstance(linear_su(relax(f)), HardUnsat)


def test_linear_su_no_improvement_under_path():
    # ub_init 0 forbids any violation; under path [1] the soft (-1) must break.
    f = make_formula(1, [], [[-1]])
    outcome = linear_su(relax(f), ub_init=0, path=[1])
    assert isinstance(outcome, NoImprovement)


def test_linear_su_proof_independence_flag():
    # Bound 0 is globally impossible: (x1) and (-x1) cannot both hold.
    f = make_formula(2, [], [[1], [-1]])
    outcome = linear_su(relax(f), ub_init=0, path=[2])
    assert isinstance(outcome, NoImprovement)
    assert outcome.proof_independent is True

    # Here the path itself is the only obstacle, so the core must use it.
    g = make_formula(1, [], [[-1]])
    outcome = linear_su(relax(g), ub_init=0, path=[1])
    assert isinstance(outcome, NoImprovement)
    assert outcome.proof_independent is False


def test_linear_su_reports_improvements_strictly_decreasing():
    f = gen_random(3, num_vars=8, num_hard=6, num_soft=8, clause_len=3)
    seen = []
    outcome = linear_su(relax(f), on_improve=lambda c, m: seen.append(c))
    if isinstance(outcome, Optimum):
        assert seen
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == len(seen)
        assert seen[-1] == outcome.cost


def test_linear_su_rejects_oversized_bound():
    f = make_formula(1, [], [[1]])
    with pytest.raises(ValueError, match="exceeds"):
        linear_su(relax(f), ub_init=2)


def test_linear_su_rejects_negative_bound():
    f = make_formula(1, [], [[1]])
    with pytest.raises(ValueError, match="ub_init -1 is negative"):
        linear_su(relax(f), ub_init=-1)


def test_msu3_sat_first_call():
    f = make_formula(2, [[1, 2]], [[1], [2]])
    reports = []
    outcome = msu3(f, on_lower_bound=reports.append)
    assert isinstance(outcome, Optimum)
    assert outcome.cost == 0
    assert reports == []


def test_msu3_single_core():
    f = make_formula(1, [], [[1], [-1]])
    reports = []
    outcome = msu3(f, on_lower_bound=reports.append)
    assert isinstance(outcome, Optimum)
    assert outcome.cost == 1
    assert reports == [1]


def test_msu3_hard_unsat():
    f = make_formula(1, [[1], [-1]], [[1]])
    assert isinstance(msu3(f), HardUnsat)


def test_msu3_lower_bounds_increase_to_optimum():
    for seed in range(30):
        f = gen_random(900 + seed, num_vars=7, num_hard=4, num_soft=9, clause_len=3)
        reports = []
        outcome = msu3(f, on_lower_bound=reports.append)
        if isinstance(outcome, Optimum):
            assert reports == list(range(1, len(reports) + 1))
            assert all(lb <= outcome.cost for lb in reports)


def test_triple_agreement_with_brute_force():
    rng = random.Random(1234)
    for case in range(200):
        num_vars = rng.randint(2, 12)
        f = gen_random(
            rng.randint(0, 10**8),
            num_vars=num_vars,
            num_hard=rng.randint(1, 2 * num_vars),
            num_soft=rng.randint(1, 12),
            clause_len=min(3, num_vars),
        )
        expected = brute_force(f)
        lin = linear_su(relax(f), seed=case)
        core_guided = msu3(f, seed=case)
        if expected == HARD_UNSAT:
            assert isinstance(lin, HardUnsat), f
            assert isinstance(core_guided, HardUnsat), f
        else:
            assert isinstance(lin, Optimum) and lin.cost == expected, f
            assert isinstance(core_guided, Optimum) and core_guided.cost == expected, f
            assert cost(f, lin.model) == expected
            assert cost(f, core_guided.model) == expected
