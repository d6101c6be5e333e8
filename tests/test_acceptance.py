"""Acceptance suite.

Each criterion is one test that prints a "criterion N (...): PASS" line when
it holds (run with -s or -v to see them as they go).  Budgets are generous:
the whole module runs in about two minutes on a laptop.
"""

import itertools
import random
import time

import pytest

from distmaxsat.bounds import BoundSet, initial_bounds
from distmaxsat.cardinality import bound_assumptions, encode_totalizer
from distmaxsat.engine import Engine, Sat, Unsat
from distmaxsat.formula import cost, make_formula, relax
from distmaxsat.lookahead import (
    CUTOFF_GROWTH,
    CUTOFF_SHRINK,
    PathGenerator,
    RESPLIT_CUTOFF,
    ROOT_CUTOFF,
    replay_theta_trace,
)
from distmaxsat.oracle import HARD_UNSAT, brute_force, gen_random, hard_models
from distmaxsat.orchestration import WorkerNode, run_sim
from distmaxsat.sequential import HardUnsat, Optimum, linear_su, msu3
from distmaxsat.transport import Message


def report(num: int, name: str) -> None:
    print(f"criterion {num} ({name}): PASS")


# ---------------------------------------------------------------- instances


def suite_instance(i: int):
    """Deterministic instance i of the acceptance suite (<=14 vars, <=40 hard,
    <=20 soft)."""
    rng = random.Random(0xACCE97 + i)
    num_vars = rng.randint(2, 14)
    num_hard = rng.randint(1, min(40, 4 * num_vars))
    num_soft = rng.randint(1, min(20, 3 * num_vars))
    return gen_random(rng.randint(0, 10**9), num_vars, num_hard, num_soft, min(3, num_vars))


@pytest.fixture(scope="module")
def mode_runs():
    """Criterion 2 workload, reused by criterion 7: returns per-instance
    records of every mode's outcome and event logs."""
    records = []
    for i in range(500):
        f = suite_instance(i)
        expected = brute_force(f)
        lin_costs = []
        lin = linear_su(relax(f), on_improve=lambda c, m: lin_costs.append(c), seed=i)
        core = msu3(f, seed=i)
        sss = run_sim(f, "sss", num_workers=4, seed=i)
        gp = run_sim(f, "gp", num_workers=4, seed=i)
        records.append(
            {
                "instance": i,
                "formula": f,
                "expected": expected,
                "linear": lin,
                "linear_costs": lin_costs,
                "msu3": core,
                "sss": sss,
                "gp": gp,
            }
        )
    return records


# ---------------------------------------------------------------- criteria


def test_criterion_1_worked_examples():
    bs = initial_bounds(37, 6)
    assert bs.bounds == [0, 6, 12, 18, 24, 30, 36]

    trace = BoundSet(lam=0, mu=50, bounds=[5, 12, 22, 27, 40])
    assert trace.apply_sat(26)
    assert trace.bounds == [5, 12, 22, 25] and trace.mu == 26
    assert trace.next_tentative() == 17
    assert trace.bounds == [5, 12, 17, 22, 25]
    assert trace.apply_unsat(17)
    assert trace.lam == 18
    assert trace.bounds == [18, 22, 25]
    assert trace.next_tentative() == 20
    assert trace.bounds == [18, 20, 22, 25]
    report(1, "worked-example exactness")


def test_criterion_2_oracle_equivalence(mode_runs):
    start = time.monotonic()
    for rec in mode_runs:
        expected = rec["expected"]
        tag = rec["instance"]
        if expected == HARD_UNSAT:
            assert isinstance(rec["linear"], HardUnsat), tag
            assert isinstance(rec["msu3"], HardUnsat), tag
            assert rec["sss"].verdict.status == "unsatisfiable", tag
            assert rec["gp"].verdict.status == "unsatisfiable", tag
        else:
            assert isinstance(rec["linear"], Optimum) and rec["linear"].cost == expected, tag
            assert isinstance(rec["msu3"], Optimum) and rec["msu3"].cost == expected, tag
            assert rec["sss"].verdict.status == "optimum" and rec["sss"].verdict.cost == expected, tag
            assert rec["gp"].verdict.status == "optimum" and rec["gp"].verdict.cost == expected, tag
            assert cost(rec["formula"], rec["sss"].verdict.model) == expected, tag
            assert cost(rec["formula"], rec["gp"].verdict.model) == expected, tag
    assert time.monotonic() - start < 300
    report(2, f"oracle equivalence on {len(mode_runs)} instances x 4 modes")


def test_criterion_3_cardinality_exactness():
    start = time.monotonic()
    for n in range(1, 9):
        inputs = list(range(1, n + 1))
        enc = encode_totalizer(inputs, fresh_from=n + 1)
        top = n + len(enc.aux_vars)
        for b in range(n + 1):
            lits = bound_assumptions(enc, b)
            for bits in itertools.product([False, True], repeat=n):
                engine = Engine(enc.clauses, num_vars=top)
                assumptions = [v if bit else -v for v, bit in zip(inputs, bits)] + lits
                result = engine.solve(assumptions)
                if sum(bits) <= b:
                    assert isinstance(result, Sat), (n, b, bits)
                else:
                    assert isinstance(result, Unsat), (n, b, bits)
    assert time.monotonic() - start < 30
    report(3, "totalizer exactness for all n <= 8, all bounds")


def _path_masks(path):
    pos = neg = 0
    for lit in path.decisions:
        if lit > 0:
            pos |= 1 << (lit - 1)
        else:
            neg |= 1 << (-lit - 1)
    return pos, neg


GENERATION_BUDGETS = (None, 1, 2, 3, 5)


@pytest.fixture(scope="module")
def generation_runs():
    """(formula, max_paths, result) for 120 instances under every budget."""
    runs = []
    for i in range(120):
        rng = random.Random(0x6E9 + i)
        num_vars = rng.randint(3, 12)
        f = gen_random(
            rng.randint(0, 10**9), num_vars, rng.randint(1, 3 * num_vars),
            rng.randint(1, 12), min(3, num_vars),
        )
        for max_paths in GENERATION_BUDGETS:
            result = PathGenerator(f.hard, f.soft, num_vars=f.num_vars, seed=i).generate(max_paths=max_paths)
            runs.append((f, max_paths, result))
    return runs


def test_criterion_4_guiding_path_partition(generation_runs):
    start = time.monotonic()
    for f, max_paths, result in generation_runs:
        if max_paths is not None:
            # The root is always expanded, so it may leave two open children.
            assert len(result.paths) <= max(max_paths, 2), (f, max_paths)
        masks = [_path_masks(p) for p in result.paths]
        for (apos, aneg), (bpos, bneg) in itertools.combinations(masks, 2):
            assert (apos & bneg) or (aneg & bpos), f
        models = hard_models(f)
        if result.root_conflict:
            assert models == []
            continue
        for m in models:
            assert any((m & pos) == pos and (m & neg) == 0 for pos, neg in masks), f
    assert time.monotonic() - start < 120
    report(4, f"path partition properties on {len(generation_runs)} generations "
              f"({len(GENERATION_BUDGETS)} budgets per instance)")


def test_criterion_5_theta_dynamics(generation_runs):
    start = time.monotonic()
    assert CUTOFF_GROWTH == 1.05 and CUTOFF_SHRINK == 0.70
    assert ROOT_CUTOFF == 1000.0 and RESPLIT_CUTOFF == 5000.0
    checked = 0
    for _f, _max_paths, result in generation_runs:
        assert result.trace[0] == ("init", 1000.0)
        assert replay_theta_trace(result.trace)
        checked += 1
    # The budgets leave open prefixes to emit as the frontier.
    assert any(op == "frontier" for _f, _m, result in generation_runs for op, _ in result.trace)
    # Re-split traces start at 5000 and replay as well.
    f = suite_instance(3)
    for max_paths in GENERATION_BUDGETS:
        gen = PathGenerator(f.hard, f.soft, num_vars=f.num_vars)
        first = gen.generate(theta0=ROOT_CUTOFF, max_paths=max_paths)
        assert replay_theta_trace(first.trace)
        if first.paths:
            second = gen.generate(d0=first.paths[0].decisions, theta0=RESPLIT_CUTOFF, max_paths=max_paths)
            assert second.trace[0] == ("init", 5000.0)
            assert replay_theta_trace(second.trace)
    assert time.monotonic() - start < 10
    report(5, f"theta dynamics replay bit-for-bit on {checked} traces")


def test_criterion_6_early_termination():
    start = time.monotonic()
    # Hard units contradict two soft clauses, so cost >= 2 is a level-0
    # propagation fact: any worker probing bound 1 gets a core consisting of
    # the bound literal alone, never a path literal.
    hard = [[1], [2]] + [[v, v + 1] for v in range(3, 10)]
    soft = [[-1], [-2]] + [[v] for v in range(3, 11)]
    f = make_formula(10, hard, soft)
    expected = brute_force(f)
    mu = 2
    for path in ([3], [3, -4], [5, 6, 7], [-3, 4, -5, 6]):
        # What a gp path worker sends for `assign_path(path, mu)`: no model
        # below μ, and λ = μ as a global bound, since no core used the path.
        sent = []
        worker = WorkerNode("w1", f, send=sent.append)
        worker.on_message(Message("assign_path", "master", {"task": 0, "path": path, "mu": mu}))
        assert [(m.kind, m.payload) for m in sent] == [("report_done", {"task": 0, "lb": mu})]
    for seed in range(5):
        out = run_sim(f, "gp", num_workers=4, seed=seed)
        assert out.verdict.status == "optimum" and out.verdict.cost == expected
        assert out.master.terminated_early
        assert len(out.master.pending) > 0
    assert time.monotonic() - start < 30
    report(6, "early termination on proof-independent cores")


def test_criterion_7_anytime_monotonicity(mode_runs):
    for rec in mode_runs:
        tag = rec["instance"]
        seqs = [rec["linear_costs"], rec["sss"].improvements, rec["gp"].improvements]
        for seq in seqs:
            assert all(a > b for a, b in zip(seq, seq[1:])), (tag, seq)
        if rec["expected"] != HARD_UNSAT:
            for event, lam, mu in rec["sss"].audit:
                assert lam <= rec["expected"] <= mu, (tag, event)
    report(7, "anytime monotonicity and bound-window audit")


def test_criterion_8_determinism_and_scaling():
    start = time.monotonic()
    for i in range(50):
        rng = random.Random(0xDE7 + i)
        num_vars = rng.randint(2, 10)
        f = gen_random(
            rng.randint(0, 10**9), num_vars, rng.randint(1, 2 * num_vars),
            rng.randint(1, 10), min(3, num_vars),
        )
        results = set()
        for algo in ("sss", "gp"):
            for workers in (1, 2, 4, 8):
                for seed in (1, 2, 3):
                    out = run_sim(f, algo, num_workers=workers, seed=seed)
                    results.add((out.verdict.status, out.verdict.cost))
                # identical seed => identical trace (rerun the last config)
                rerun = run_sim(f, algo, num_workers=workers, seed=3)
                assert rerun.trace == out.trace, (i, algo, workers)
        assert len(results) == 1, (i, results)
    assert time.monotonic() - start < 300
    report(8, "determinism and scaling smoke test (50 instances x 24 configs)")


def test_criterion_9_sat_engine_conformance(learned):
    start = time.monotonic()
    rng = random.Random(0x5A7E)
    learned_checked = 0
    for case in range(1000):
        num_vars = rng.randint(4, 16)
        n_clauses = rng.randint(num_vars, int(4.5 * num_vars))
        clauses = []
        for _ in range(n_clauses):
            length = min(num_vars, rng.choice([2, 3, 3, 3, 3]))
            vs = rng.sample(range(1, num_vars + 1), length)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        k = rng.randint(0, min(4, num_vars))
        assumptions = [
            v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), k)
        ]
        engine = Engine(clauses, num_vars=num_vars, seed=case)
        result = engine.solve(assumptions)
        as_formula = make_formula(
            num_vars, [list(c) for c in clauses] + [[a] for a in assumptions], []
        )
        expected = brute_force(as_formula)
        if isinstance(result, Sat):
            assert expected == 0, case
            for c in clauses:
                assert any(result.model[abs(l)] == (l > 0) for l in c), case
        else:
            assert expected == HARD_UNSAT, case
            assert result.core <= set(assumptions), case
            recheck = Engine(clauses, num_vars=num_vars, seed=0)
            assert isinstance(recheck.solve(sorted(result.core)), Unsat), case
        if num_vars <= 12:
            for clause in learned[engine][:20]:
                neg = make_formula(
                    num_vars, [list(c) for c in clauses] + [[-l] for l in clause], []
                )
                assert brute_force(neg) == HARD_UNSAT, case
                learned_checked += 1
    assert learned_checked > 100
    assert time.monotonic() - start < 300
    report(9, f"engine conformance on 1000 CNFs ({learned_checked} learned clauses verified)")
