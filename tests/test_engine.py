import hashlib
import random

import pytest

from distmaxsat.engine import VAR_ACT_DECAY, Engine, Sat, Unsat, luby

from conftest import brute_force_sat, naive_propagate, pigeonhole, random_cnf


def model_satisfies(clauses, model):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def test_luby_prefix():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_contradictory_units_unsat():
    e = Engine([(1,), (-1,)], num_vars=1)
    assert isinstance(e.solve(), Unsat)
    assert e.root_unsat


def test_empty_clause_list_sat():
    e = Engine([], num_vars=3)
    result = e.solve()
    assert isinstance(result, Sat)
    assert set(result.model) == {1, 2, 3}


def test_solve_agrees_with_brute_force_small():
    rng = random.Random(7)
    for _ in range(60):
        clauses = random_cnf(rng, 10, 50)
        e = Engine(clauses, num_vars=10)
        result = e.solve()
        expected = brute_force_sat(clauses, 10)
        if isinstance(result, Sat):
            assert expected is not None
            assert model_satisfies(clauses, result.model)
        else:
            assert expected is None


def test_add_clause_conflicting_units():
    e = Engine(num_vars=1)
    e.add_clauses([(1,)])
    e.add_clauses([(-1,)])
    assert e.root_unsat
    assert isinstance(e.solve(), Unsat)


def test_add_clause_requires_level_zero():
    e = Engine([(1, 2)], num_vars=2)
    e._new_level()
    with pytest.raises(ValueError, match="level 0"):
        e.add_clauses([(2,)])


def test_add_clause_rejects_bad_literals():
    e = Engine(num_vars=2)
    with pytest.raises(ValueError, match="out of range"):
        e.add_clauses([(3,)])
    with pytest.raises(ValueError, match="tautological"):
        e.add_clauses([(1, -1)])


def test_one_add_clauses_batch_leaves_the_state_of_one_call_per_clause():
    """One batch, one `add_clauses` call per clause, or the constructor: the
    same stored clauses, watches, level-0 trail and errors."""
    batch = [
        (2, 3),
        (5, 4, 6),
        (1, 1, -2),
        (4, -6),
        (-4,),  # a unit: ¬4, then ¬6 from (4, -6) and 5 from (5, 4, 6)
        (-3, 2, 6, 4, 5),  # falsified 6 and 4 in the middle
        (6, -4, -1),
    ]
    one_by_one = Engine(num_vars=6, seed=3)
    for clause in batch:
        one_by_one.add_clauses([clause])
    at_once = Engine(num_vars=6, seed=3)
    at_once.add_clauses(batch)
    built = Engine(batch, num_vars=6, seed=3)
    assert engine_state(at_once) == engine_state(one_by_one) == engine_state(built)
    assert at_once.trail == [-4, -6, 5]
    assert at_once.clauses[5:] == [[-3, 2, 5, 6, 4], [-4, -1, 6]]
    for bad, error in (((1, 7), "out of range"), ((0,), "out of range"), ((2, 3, -2), "tautological"),
                       ((-6, 6), "tautological"), ((6, -6), "tautological")):
        with pytest.raises(ValueError, match=error):
            at_once.add_clauses([(1, 2), bad])
        one_by_one.add_clauses([(1, 2)])
        with pytest.raises(ValueError, match=error):
            one_by_one.add_clauses([bad])
        assert engine_state(at_once) == engine_state(one_by_one)


def test_solve_rejects_zero_and_out_of_range_assumptions_on_entry():
    e = Engine([(1, 2)], num_vars=2)
    for bad in ([0], [1, 3], [-3], [-1, -2, 7]):  # the last: a conflict comes first
        with pytest.raises(ValueError, match=f"assumption {bad[-1]} out of range"):
            e.solve(bad)
    assert e.solve([-1]).model == {1: False, 2: True}


def test_incremental_blocking_clause():
    rng = random.Random(11)
    for _ in range(30):
        clauses = random_cnf(rng, 8, 20)
        e = Engine(clauses, num_vars=8)
        result = e.solve()
        if not isinstance(result, Sat):
            continue
        blocking = tuple(-v if result.model[v] else v for v in range(1, 9))
        e.add_clauses([blocking])
        second = e.solve()
        expected = brute_force_sat(clauses + [blocking], 8)
        if isinstance(second, Sat):
            assert expected is not None
            assert model_satisfies(clauses + [blocking], second.model)
            assert second.model != result.model
        else:
            assert expected is None


def test_solve_under_assumptions_forced_core():
    e = Engine([(-1, -2)], num_vars=2)
    result = e.solve([1, 2])
    assert isinstance(result, Unsat)
    assert result.core
    assert result.core <= {1, 2}


def test_solve_empty_db_assumption():
    e = Engine([], num_vars=1)
    result = e.solve([1])
    assert isinstance(result, Sat)
    assert result.model[1] is True


def test_assumption_verdicts_and_cores_match_brute_force():
    rng = random.Random(23)
    for round_ in range(200):
        num_vars = rng.randint(3, 12)
        clauses = random_cnf(rng, num_vars, rng.randint(2, 4 * num_vars))
        k = rng.randint(0, min(4, num_vars))
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), k)
        ]
        e = Engine(clauses, num_vars=num_vars, seed=round_)
        result = e.solve(assumptions)
        expected = brute_force_sat(clauses, num_vars, assumptions)
        if isinstance(result, Sat):
            assert expected is not None
            assert model_satisfies(clauses, result.model)
            for a in assumptions:
                assert result.model[abs(a)] == (a > 0)
        else:
            assert expected is None
            assert result.core <= set(assumptions)
            # The database together with just the core must stay UNSAT.
            recheck = Engine(clauses, num_vars=num_vars)
            assert isinstance(recheck.solve(sorted(result.core)), Unsat)


def test_propagate_under_chain():
    e = Engine([(-1, 2), (-2, 3)], num_vars=3)
    assert e.propagate_under([1]) == {2, 3}
    assert not e.trail_lim


def test_propagate_under_conflict():
    # Level-0 unit (-2) already implies -1, so deciding 1 is contradicted.
    e = Engine([(-1, 2), (-2,)], num_vars=2)
    assert e.propagate_under([1]) is None
    assert not e.trail_lim
    assert e.conflicts == 0  # no falsified clause, nothing learned


def test_propagate_under_clause_conflict():
    e = Engine([(-1, 2), (-2, 3), (-1, -3)], num_vars=3)
    assert e.propagate_under([1]) is None
    assert not e.trail_lim
    assert e.conflicts == 1  # the falsified clause was analyzed


def test_propagate_under_rejects_complementary():
    e = Engine([], num_vars=2)
    with pytest.raises(ValueError, match="complementary"):
        e.propagate_under([1, -1])


def test_propagate_under_matches_naive_fixpoint():
    rng = random.Random(31)
    for _ in range(150):
        num_vars = rng.randint(3, 10)
        clauses = random_cnf(rng, num_vars, rng.randint(2, 3 * num_vars))
        k = rng.randint(1, min(3, num_vars))
        decisions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), k)
        ]
        e = Engine(clauses, num_vars=num_vars)
        if e.root_unsat:
            continue
        expected, naive_conflict = naive_propagate(clauses, decisions)
        implied = e.propagate_under(decisions)
        if implied is None:
            assert naive_conflict
            assert not e.trail_lim
        else:
            assert not naive_conflict
            assert implied == expected


def test_analyze_learns_negation_of_bad_decision():
    e = Engine([(-1, 2), (-1, -2)], num_vars=2)
    assert e.propagate_under([1]) is None
    assert not e.trail_lim
    assert e.assigns[-1] > 0 and e.levels[1] == 0  # ¬1 learned and asserted at level 0


def test_analyze_requires_live_conflict():
    e = Engine([(-1, 2)], num_vars=2)
    assert e.propagate_under([1]) == {2}
    with pytest.raises(ValueError, match="level 0"):
        e.analyze_and_learn(e.clauses[0])


def test_learned_clauses_implied_by_originals(learned):
    rng = random.Random(47)
    checked = 0
    for _ in range(80):
        num_vars = rng.randint(4, 9)
        clauses = random_cnf(rng, num_vars, rng.randint(num_vars, 4 * num_vars))
        e = Engine(clauses, num_vars=num_vars, seed=1)
        e.solve()
        for clause in learned[e]:
            # original ∧ ¬clause must be unsatisfiable
            negation = [(-l,) for l in clause]
            assert brute_force_sat(list(clauses) + negation, num_vars) is None
            checked += 1
    assert checked > 10


def test_learning_preserves_satisfiability(learned):
    rng = random.Random(53)
    for _ in range(40):
        num_vars = rng.randint(3, 8)
        clauses = random_cnf(rng, num_vars, rng.randint(2, 3 * num_vars))
        e = Engine(clauses, num_vars=num_vars)
        verdict = isinstance(e.solve(), Sat)
        with_learned = clauses + [list(c) for c in learned[e]]
        assert (brute_force_sat(with_learned, num_vars) is not None) == verdict


def watched_by(engine, lit, clause) -> bool:
    """Whether the watch list of `lit` holds `clause` itself: clauses are
    plain lists, and `in` would also match an equal one."""
    return any(c is clause for c in engine.watches[lit])


def test_fresh_clause_watched_on_two_literals():
    e = Engine([(1, 2, 3)], num_vars=3)
    clause = e.clauses[0]
    watching = [l for l in (1, 2, 3) if watched_by(e, l, clause)]
    assert len(watching) == 2


def test_watched_clauses_absent_literal():
    e = Engine([(1, 2)], num_vars=3)
    assert e.watches[3] == []
    assert e.watches[-3] == []


def check_lazy_watch_invariant(engine):
    """A false watched literal means the other watched literal is true and
    was assigned at the same or a lower level.

    Holds after every conflict-free propagation; a conflict aborts
    propagation mid-queue, and a root-level one leaves the engine
    permanently UNSAT.
    """
    if engine.root_unsat:
        return
    for clause in engine.clauses + engine.learned_clauses:
        if len(clause) < 2:
            continue
        a, b = clause[0], clause[1]
        if not watched_by(engine, a, clause) or not watched_by(engine, b, clause):
            continue  # a level-0 unit or satisfied clause: never watched
        for false_lit, other in ((a, b), (b, a)):
            if engine.assigns[false_lit] < 0:
                assert engine.assigns[other] > 0, clause
                assert engine.levels[abs(other)] <= engine.levels[abs(false_lit)], clause


def test_watch_invariant_after_propagation():
    rng = random.Random(61)
    checked_above_root = 0
    for _ in range(60):
        num_vars = rng.randint(3, 10)
        clauses = random_cnf(rng, num_vars, rng.randint(2, 3 * num_vars))
        e = Engine(clauses, num_vars=num_vars)
        if e.root_unsat:
            continue
        check_lazy_watch_invariant(e)
        decisions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), min(3, num_vars))
        ]
        # One decision per level, checked after each conflict-free propagation.
        for d in decisions:
            if e.assigns[d] != 0:
                continue
            e._new_level()
            e._enqueue(d, None)
            if e._propagate() is not None:
                break
            check_lazy_watch_invariant(e)
            checked_above_root += 1
        e._cancel_until(0)
        e.propagate_under(decisions)
        check_lazy_watch_invariant(e)
        e.solve()
        check_lazy_watch_invariant(e)
    assert checked_above_root > 20


def test_satisfied_clause_keeps_its_watch():
    """A watcher whose other watch is already true is not moved."""
    e = Engine([(1, 2, 3)], num_vars=3)
    clause = e.clauses[0]
    assert clause[:2] == [1, 2]
    e._new_level()
    e._enqueue(1, None)
    assert e._propagate() is None
    e._new_level()
    e._enqueue(-2, None)
    assert e._propagate() is None
    assert watched_by(e, 2, clause)
    assert not watched_by(e, 3, clause)


def test_deterministic_given_seed(learned):
    rng = random.Random(71)
    clauses = random_cnf(rng, 12, 40)
    a = Engine(clauses, num_vars=12, seed=5)
    b = Engine(clauses, num_vars=12, seed=5)
    ra, rb = a.solve(), b.solve()
    assert type(ra) is type(rb)
    if isinstance(ra, Sat):
        assert ra.model == rb.model
    assert learned[a] == learned[b]


def test_model_vars_cuts_the_model_and_keeps_the_search():
    rng = random.Random(72)
    for _ in range(20):
        clauses = random_cnf(rng, 14, 50)
        full, cut = Engine(clauses, num_vars=14, seed=3), Engine(clauses, num_vars=14, seed=3)
        for assumptions in ([], [1, -2], [3]):
            ra, rb = full.solve(assumptions), cut.solve(assumptions, model_vars=6)
            assert type(ra) is type(rb)
            if isinstance(ra, Sat):
                assert rb.model == {v: ra.model[v] for v in range(1, 7)}
            else:
                assert ra.core == rb.core
        assert full.conflicts == cut.conflicts


def test_cancel_until_saves_last_phase():
    e = Engine([(-1, 2)], num_vars=3)
    e._new_level()
    e._enqueue(1, None)
    assert e._propagate() is None
    e._new_level()
    e._enqueue(-3, None)
    e._cancel_until(0)
    assert e.phase[1:] == [True, True, False]
    assert all(e.assigns[v] == 0 for v in (1, 2, 3))
    e._new_level()
    e._enqueue(-1, None)
    e._enqueue(3, None)
    e._cancel_until(0)
    assert e.phase[1:] == [False, True, True]


def test_pick_branch_breaks_activity_ties_by_tie_rank():
    e = Engine(num_vars=4)
    e.tie_rank[1:] = [0.1, 0.9, 0.5, 0.3]
    e.activity[1:] = [1.0, 1.0, 1.0, 1.0]
    e.phase[2] = True
    assert e._pick_branch() == 2
    e.activity[3] = 1.5
    assert e._pick_branch() == -3
    e._new_level()
    e._enqueue(-3, None)
    assert e._pick_branch() == 2


def test_add_clause_puts_unfalsified_literals_first_and_watches_them():
    e = Engine([(-1,), (-2,)], num_vars=5)
    e.add_clauses([(1, 3, 2, 4)])
    clause = e.clauses[-1]
    assert clause == [3, 4, 1, 2]
    assert [l for l in (1, 2, 3, 4) if watched_by(e, l, clause)] == [3, 4]


def clause_lits(clause):
    """The literals of a stored clause, watched pair first."""
    return clause


def engine_state(engine) -> str:
    """The search's whole footprint: trail, levels, phases, activities, every
    clause and every watch list in order, and the counters."""
    n = engine.num_vars
    return repr((
        engine.trail, engine.trail_lim, engine.levels, engine.phase,
        repr(engine.activity), repr(engine.var_inc),
        [clause_lits(c) for c in engine.clauses],
        [clause_lits(c) for c in engine.learned_clauses],
        [[clause_lits(c) for c in engine.watches[l]] for l in range(-n, n + 1) if l],
        engine.conflicts, engine.restarts,
    ))


ENGINE_STATE_DIGEST = "9436a538f6cc8d94"


def test_engine_state_is_pinned(monkeypatch):
    """Same search: fixed work leaves the same engine state, bit for bit.

    Fifty seeded random CNFs are solved under assumptions, grown with
    `add_vars` and `add_clauses` and probed by `propagate_under`; then one
    pigeonhole solve runs long enough to reduce the learned clauses and to
    rescale the activities.
    """
    reductions = []
    reduce_db = Engine._maybe_reduce_db

    def spy(engine):
        before = len(engine.learned_clauses)
        reduce_db(engine)
        reductions.append(len(engine.learned_clauses) < before)

    monkeypatch.setattr(Engine, "_maybe_reduce_db", spy)
    rng = random.Random(2603)
    digest = hashlib.sha256()
    probe_conflicts = 0
    for round_ in range(50):
        num_vars = rng.randint(8, 16)
        e = Engine(random_cnf(rng, num_vars, rng.randint(3 * num_vars, 5 * num_vars)), num_vars, seed=round_)
        for _ in range(3):
            lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, e.num_vars + 1), 4)]
            e.solve(lits[:2])
            before = e.conflicts
            e.propagate_under(lits[1:])
            probe_conflicts += e.conflicts - before
            e.add_vars(2)
            e.add_clauses([[e.num_vars, -(e.num_vars - 1)] + lits[:2]])
            e.add_clauses([[e.num_vars - 1] + [-l for l in lits[2:]]])
        digest.update(engine_state(e).encode())
    f = pigeonhole(1, 7)
    e = Engine(list(f.hard) + list(f.soft), f.num_vars, seed=2)
    assert isinstance(e.solve(), Unsat)
    digest.update(engine_state(e).encode())
    assert probe_conflicts > 0 and any(reductions)
    assert e.var_inc < VAR_ACT_DECAY ** -e.conflicts * 1e-99  # rescaled
    assert digest.hexdigest()[:16] == ENGINE_STATE_DIGEST
