import pytest

from distmaxsat.formula import (
    WcnfError,
    cost,
    make_formula,
    parse_wcnf,
    relax,
    serialize_wcnf,
)
from distmaxsat.oracle import HARD_UNSAT, brute_force, gen_random

from conftest import assignment_from_mask, clause_holds


EXAMPLE = "p wcnf 2 3 3\n3 1 2 0\n1 -1 0\n1 -2 0\n"


def test_parse_splits_hard_and_soft():
    f = parse_wcnf(EXAMPLE)
    assert f.num_vars == 2
    assert f.hard == ((1, 2),)
    assert f.soft == ((-1,), (-2,))


def test_parse_hard_only():
    f = parse_wcnf("p wcnf 1 1 2\n2 1 0\n")
    assert f.num_vars == 1
    assert len(f.hard) == 1
    assert len(f.soft) == 0


def test_parse_rejects_intermediate_weight():
    with pytest.raises(WcnfError, match="weight 3"):
        parse_wcnf("p wcnf 2 1 5\n3 1 2 0\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p cnf 2 1\n1 2 0\n", "header"),
        ("p wcnf 2 1\n", "header"),
        ("p wcnf 2 2 3\n3 1 0\n", "count mismatch"),
        ("p wcnf 2 1 3\n3 1 5 0\n", "out of range"),
        ("p wcnf 2 1 3\n3 1 -1 0\n", "tautological"),
        ("p wcnf 2 1 3\n3 1 2\n", "terminated"),
        ("3 1 2 0\np wcnf 2 1 3\n", "before header"),
        ("p wcnf 2 1 1\n1 1 0\n", "bad header"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(WcnfError, match=fragment):
        parse_wcnf(text)


def test_parse_ignores_comments_everywhere():
    text = "c top comment\np wcnf 2 2 9\nc middle\n9 1 2 0\n1 -1 0\nc end\n"
    f = parse_wcnf(text)
    assert len(f.hard) == 1 and len(f.soft) == 1


def test_duplicate_literals_deduplicated():
    f = parse_wcnf("p wcnf 2 1 3\n3 1 1 2 0\n")
    assert f.hard == ((1, 2),)


def test_roundtrip_random_instances():
    for seed in range(40):
        f = gen_random(seed, num_vars=6, num_hard=5, num_soft=4, clause_len=3)
        assert parse_wcnf(serialize_wcnf(f)) == f


def test_relax_appends_fresh_variables():
    f = parse_wcnf(EXAMPLE)
    rf = relax(f)
    assert rf.relax_vars == (3, 4)
    assert rf.clauses == ((1, 2), (-1, 3), (-2, 4))


def test_relax_no_soft_clauses():
    f = make_formula(2, [[1, 2]], [])
    rf = relax(f)
    assert rf.clauses == f.hard
    assert rf.relax_vars == ()


def test_relax_recovers_original():
    f = gen_random(7, num_vars=8, num_hard=6, num_soft=5, clause_len=3)
    rf = relax(f)
    stripped = tuple(
        tuple(l for l in c if abs(l) not in rf.relax_vars) for c in rf.clauses
    )
    assert stripped == f.hard + f.soft


def _min_relax_count(rf, assignment):
    """Fewest relaxation variables set true so the relaxed CNF holds."""
    return sum(
        1
        for clause, r in zip(rf.base.soft, rf.relax_vars)
        if not clause_holds(clause, assignment)
    )


def test_relax_optimum_matches_brute_force():
    for seed in range(25):
        f = gen_random(100 + seed, num_vars=7, num_hard=5, num_soft=5, clause_len=3)
        rf = relax(f)
        best = None
        for mask in range(1 << f.num_vars):
            a = assignment_from_mask(mask, f.num_vars)
            if all(clause_holds(c, a) for c in f.hard):
                need = _min_relax_count(rf, a)
                best = need if best is None else min(best, need)
        expected = brute_force(f)
        if best is None:
            assert expected == HARD_UNSAT
        else:
            assert best == expected


def test_cost_direct_count():
    f = parse_wcnf(EXAMPLE)
    assert cost(f, {1: True, 2: False}) == 1


def test_cost_zero_when_all_soft_satisfied():
    f = make_formula(2, [[1, 2]], [[1], [2]])
    assert cost(f, {1: True, 2: True}) == 0


def test_cost_requires_total_assignment():
    f = parse_wcnf(EXAMPLE)
    with pytest.raises(ValueError, match="not total"):
        cost(f, {1: True})


def test_cost_rejects_hard_violation():
    f = parse_wcnf(EXAMPLE)
    with pytest.raises(ValueError, match="hard clause"):
        cost(f, {1: False, 2: False})


def test_cost_matches_independent_evaluator(rng):
    for _ in range(40):
        f = gen_random(rng.randint(0, 10**6), 6, 4, 6, 3)
        for mask in range(1 << f.num_vars):
            a = assignment_from_mask(mask, f.num_vars)
            if not all(clause_holds(c, a) for c in f.hard):
                continue
            expected = sum(0 if clause_holds(c, a) else 1 for c in f.soft)
            assert cost(f, a) == expected
            break
