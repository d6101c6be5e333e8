import random

from distmaxsat.engine import Sat
from distmaxsat.formula import cost, make_formula, relax
from distmaxsat.oracle import HARD_UNSAT, brute_force, gen_random
from distmaxsat.sequential import Core, CoreGuided, HardUnsat, Optimum, linear_su, msu3


def test_linear_su_two_var_example():
    f = make_formula(2, [[1, 2]], [[-1], [-2]])
    outcome = linear_su(relax(f))
    assert isinstance(outcome, Optimum)
    assert outcome.cost == 1
    assert cost(f, outcome.model) == 1


def test_linear_su_hard_unsat():
    f = make_formula(1, [[1], [-1]], [[1]])
    assert isinstance(linear_su(relax(f)), HardUnsat)


def cell(f, cube, stop):
    """`msu3` under `cube` until λ reaches `stop`, as a gp path cell runs it:
    the outcome and the λ reports that hold for `f` as a whole."""
    reports = []
    outcome = CoreGuided(f).msu3(cube, stop=stop, on_lower_bound=reports.append)
    return outcome, reports


def test_linear_su_no_improvement_under_path():
    # A gp path task's search under its path, which finds no model cheaper
    # than μ: the cell loop on `CoreGuided.msu3`.
    # Below μ = 1 no violation is allowed; under path [1] the soft (-1) must break.
    f = make_formula(1, [], [[-1]])
    outcome, reports = cell(f, [1], stop=1)
    assert outcome is None
    assert reports == []  # the core used the path literal


def test_linear_su_proof_independence_flag():
    # Whether a path task's "no improvement" holds without the path: the cell
    # loop reports λ only from cores that avoid every path literal.
    # λ = 1 holds globally: (x1) and (-x1) cannot both hold.
    f = make_formula(2, [], [[1], [-1]])
    outcome, reports = cell(f, [2], stop=1)
    assert outcome is None
    assert reports == [1]

    # Here the path itself is the only obstacle, so the core must use it.
    g = make_formula(1, [], [[-1]])
    outcome, reports = cell(g, [1], stop=1)
    assert outcome is None
    assert reports == []


def test_one_input_totalizer_output_is_the_bound_not_a_new_soft():
    # Soft (x1) against hard (-x1).  The first call relaxes (x1); at b = 0 the
    # totalizer over R = {r} has r itself as its output, so the next core,
    # {-r}, is the bound literal, not a soft clause to add to R again.
    f = make_formula(1, [[-1]], [[1]])
    state = CoreGuided(f)
    [r] = state.relax_vars
    assert state.call((), 0) == Core((r,), bound=False, cube=False)
    assert state.call((), 0) == Core((), bound=True, cube=False)
    assert state.relaxed == {r}
    assert isinstance(state.call((), 1), Sat)


def test_linear_su_reports_improvements_strictly_decreasing():
    f = gen_random(3, num_vars=8, num_hard=6, num_soft=8, clause_len=3)
    seen = []
    outcome = linear_su(relax(f), on_improve=lambda c, m: seen.append(c))
    if isinstance(outcome, Optimum):
        assert seen
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == len(seen)
        assert seen[-1] == outcome.cost


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
