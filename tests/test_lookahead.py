import random

import pytest

from distmaxsat.engine import Engine
from distmaxsat.lookahead import (
    PathGenerator,
    choose_polarity,
    choose_variable,
    clause_reduction_score,
    dump_paths,
    generate_guiding_paths,
    polarity_counts,
    rank_key,
    replay_theta_trace,
)
from distmaxsat.oracle import gen_random, hard_models

from conftest import random_cnf


def path_masks(path):
    pos = neg = 0
    for lit in path.decisions:
        if lit > 0:
            pos |= 1 << (lit - 1)
        else:
            neg |= 1 << (-lit - 1)
    return pos, neg


def paths_conflict(a, b):
    apos, aneg = path_masks(a)
    bpos, bneg = path_masks(b)
    return (apos & bneg) or (aneg & bpos)


def extends(mask, path):
    pos, neg = path_masks(path)
    return (mask & pos) == pos and (mask & neg) == 0


# ----------------------------------------------------------------- scoring


def test_reduction_score_zero_when_never_negated():
    e = Engine([(1, 2)], num_vars=3)
    assert clause_reduction_score(e, {}, 3, l_max=2) == 0.0
    assert clause_reduction_score(e, {}, 1, l_max=2) == 0.0  # 1 occurs only positively


def test_reduction_score_worked_formula():
    # One clause is shortened from 3 to 2 by x3=0; weight(2) = 5 with l_max 3.
    e = Engine([(1, 2, 3), (2, -3), (-1, 2)], num_vars=3)
    assert clause_reduction_score(e, {}, -3, l_max=3) == 5.0


def test_reduction_score_requires_unassigned():
    e = Engine([(1, 2)], num_vars=2)
    with pytest.raises(ValueError, match="assigned"):
        clause_reduction_score(e, {1: True}, 1, l_max=2)


def test_reduction_score_full_mode_matches_naive_rescan(rng):
    for _ in range(60):
        num_vars = rng.randint(3, 9)
        clauses = random_cnf(rng, num_vars, rng.randint(2, 3 * num_vars))
        e = Engine(clauses, num_vars=num_vars)
        l_max = max(len(c) for c in clauses)
        k = rng.randint(0, num_vars - 1)
        assigned = {v: rng.random() < 0.5 for v in rng.sample(range(1, num_vars + 1), k)}
        free = [v for v in range(1, num_vars + 1) if v not in assigned]
        if not free:
            continue
        lit = rng.choice([free[0], -free[0]])
        got = clause_reduction_score(e, assigned, lit, l_max)
        expected = 0.0
        for clause in clauses:
            if -lit not in clause:
                continue
            if any(assigned.get(abs(q)) == (q > 0) for q in clause):
                continue
            reduced = sum(1 for q in clause if abs(q) not in assigned and q != -lit)
            expected += 5.0 ** (l_max - reduced)
        assert got == expected


def test_rank_key_tiebreak_arithmetic():
    # (3,3) and (9,1): equal product, sums 6 vs 10 -> second wins.
    assert rank_key(9.0, 1.0, 2) > rank_key(3.0, 3.0, 1)
    # Full tie -> lowest variable index wins.
    assert rank_key(2.0, 2.0, 1) > rank_key(2.0, 2.0, 2)


def test_choose_variable_singleton():
    e = Engine([(1, 2)], num_vars=2)
    assert choose_variable(e, {2: True}, [1, 2], l_max=2) == 1


def test_choose_variable_matches_exhaustive_scorer(rng):
    # Recompute the watched-only scores by scanning every clause's watch
    # positions instead of the watch index.
    for _ in range(40):
        num_vars = rng.randint(3, 9)
        clauses = random_cnf(rng, num_vars, rng.randint(2, 3 * num_vars))
        e = Engine(clauses, num_vars=num_vars)
        if e.root_unsat:
            continue
        l_max = max(len(c) for c in clauses)
        soft_vars = sorted(rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars)))
        picked = choose_variable(e, {}, soft_vars, l_max)

        def watched_score(lit):
            total = 0.0
            for clause in e.clauses + e.learned_clauses:
                if len(clause.lits) < 2 or -lit not in clause.lits[:2]:
                    continue
                if clause not in e.watches[-lit]:
                    continue
                reduced = sum(1 for q in clause.lits if q != -lit)
                total += 5.0 ** (l_max - reduced)
            return total

        best = max(soft_vars, key=lambda v: rank_key(watched_score(v), watched_score(-v), v))
        assert picked == best


def test_polarity_prefers_fewer_falsified():
    # Soft (-1): setting 1 falsifies it, setting -1 does not.
    assert choose_polarity([(-1,)], {}, 1) == -1


def test_polarity_tie_prefers_more_satisfied():
    # (1, 2) and (-1, 3): neither direction of 1 falsifies anything outright,
    # but x1=1 satisfies one soft clause while x1=0 satisfies the other; add a
    # second clause containing 1 to break the tie toward positive.
    soft = [(1, 2), (1, 3), (-1, 4)]
    assert choose_polarity(soft, {}, 1) == 1


def test_polarity_default_positive():
    assert choose_polarity([], {}, 5) == 5


def test_polarity_counts_against_naive(rng):
    for _ in range(60):
        num_vars = rng.randint(2, 8)
        soft = random_cnf(rng, num_vars, rng.randint(1, 2 * num_vars))
        k = rng.randint(0, num_vars - 1)
        assigned = {v: rng.random() < 0.5 for v in rng.sample(range(1, num_vars + 1), k)}
        free = [v for v in range(1, num_vars + 1) if v not in assigned]
        if not free:
            continue
        lit = rng.choice([free[0], -free[0]])
        falsified, satisfied = polarity_counts(soft, assigned, lit)
        exp_f = exp_s = 0
        for clause in soft:
            before = [assigned.get(abs(q)) == (q > 0) if abs(q) in assigned else None for q in clause]
            if any(v is True for v in before):
                continue  # already satisfied: can't newly change
            if all(v is False for v in before):
                continue  # already falsified: not *newly* falsified
            after = dict(assigned)
            after[abs(lit)] = lit > 0
            vals = [after.get(abs(q)) == (q > 0) if abs(q) in after else None for q in clause]
            if any(v is True for v in vals):
                exp_s += 1
            elif all(v is False for v in vals):
                exp_f += 1
        assert (falsified, satisfied) == (exp_f, exp_s)


# -------------------------------------------------------------- generation


def test_root_conflict_returns_no_paths():
    result = generate_guiding_paths([(1,), (-1,)], [(2,)], num_vars=2)
    assert result.root_conflict
    assert result.paths == []


def test_tiny_cutoff_emits_d0_alone():
    f = gen_random(5, num_vars=6, num_hard=4, num_soft=4, clause_len=3)
    result = generate_guiding_paths(f.hard, f.soft, d0=(1,), theta0=1e-6, num_vars=6)
    if not result.root_conflict:
        assert [p.decisions for p in result.paths] == [(1,)]


BUDGETS = (None, 1, 2, 3, 5)


def test_paths_pairwise_conflicting_and_covering():
    for seed in range(40):
        f = gen_random(seed, num_vars=8, num_hard=8, num_soft=6, clause_len=3)
        models = hard_models(f)
        for max_paths in BUDGETS:
            result = generate_guiding_paths(f.hard, f.soft, num_vars=f.num_vars, max_paths=max_paths)
            paths = result.paths
            if max_paths is not None:
                assert len(paths) <= max(max_paths, 2), (seed, max_paths)
            for i in range(len(paths)):
                for j in range(i + 1, len(paths)):
                    assert paths_conflict(paths[i], paths[j]), (seed, max_paths, i, j)
            if result.root_conflict:
                assert models == []
                continue
            for mask in models:
                assert any(extends(mask, p) for p in paths), (seed, max_paths, mask)


def test_gen_indices_in_emission_order():
    f = gen_random(9, num_vars=7, num_hard=5, num_soft=5, clause_len=3)
    result = generate_guiding_paths(f.hard, f.soft, num_vars=7)
    indices = [p.gen_index for p in result.paths]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)


def test_theta_trace_replays_exactly():
    for seed in (3, 17, 29):
        f = gen_random(seed, num_vars=8, num_hard=10, num_soft=6, clause_len=3)
        for max_paths in BUDGETS:
            result = generate_guiding_paths(f.hard, f.soft, num_vars=8, max_paths=max_paths)
            assert result.trace[0] == ("init", 1000.0)
            assert replay_theta_trace(result.trace)


def test_resplit_reuses_generator_and_restarts_theta():
    f = gen_random(21, num_vars=8, num_hard=8, num_soft=6, clause_len=3)
    gen = PathGenerator(f.hard, f.soft, num_vars=8)
    first = gen.generate()
    if not first.paths:
        return
    target = first.paths[0]
    second = gen.generate(d0=target.decisions, theta0=5000.0, parent_index=target.gen_index)
    assert second.trace[0] == ("init", 5000.0)
    assert replay_theta_trace(second.trace)
    for p in second.paths:
        assert p.parent_index == target.gen_index
        assert p.decisions[: target.depth] == target.decisions
        assert p.gen_index > first.paths[-1].gen_index


def test_determinism():
    f = gen_random(33, num_vars=9, num_hard=9, num_soft=7, clause_len=3)
    a = generate_guiding_paths(f.hard, f.soft, num_vars=9, seed=4)
    b = generate_guiding_paths(f.hard, f.soft, num_vars=9, seed=4)
    assert [p.decisions for p in a.paths] == [p.decisions for p in b.paths]
    assert a.trace == b.trace


def test_decisions_only_on_soft_variables():
    for seed in range(20):
        f = gen_random(50 + seed, num_vars=8, num_hard=8, num_soft=4, clause_len=3)
        soft_vars = {abs(l) for c in f.soft for l in c}
        result = generate_guiding_paths(f.hard, f.soft, num_vars=8)
        for p in result.paths:
            assert {abs(l) for l in p.decisions} <= soft_vars


def test_depth_guard_shrinks_theta():
    gen = PathGenerator([(1, 2)], [(1,), (2,)], num_vars=2)
    gen.hard_count = 1 << 30  # log2 = 30 > 25 at any depth
    result = gen.generate()
    assert any(op == "shrink" for op, _ in result.trace)
    assert replay_theta_trace(result.trace)


def test_dump_paths_icnf_lines():
    f = gen_random(2, num_vars=6, num_hard=4, num_soft=4, clause_len=3)
    result = generate_guiding_paths(f.hard, f.soft, num_vars=6)
    text = dump_paths(result.paths)
    lines = [l for l in text.splitlines() if l]
    assert len(lines) == len(result.paths)
    for line in lines:
        assert line.startswith("a ") and line.endswith(" 0")
