import random

import pytest

from distmaxsat.bounds import BoundSet, initial_bounds
from distmaxsat.oracle import HARD_UNSAT, brute_force, gen_random


def test_initial_bounds_mu37_k6():
    bs = initial_bounds(37, 6)
    assert bs.bounds == [0, 6, 12, 18, 24, 30, 36]
    assert bs.lam == 0 and bs.mu == 37


def test_initial_bounds_collapse():
    bs = initial_bounds(1, 5)
    assert bs.bounds == [0]


def test_initial_bounds_mu10_k3():
    assert initial_bounds(10, 3).bounds == [0, 3, 6, 9]


def test_initial_bounds_validation():
    with pytest.raises(ValueError):
        initial_bounds(0, 3)
    with pytest.raises(ValueError):
        initial_bounds(5, 0)


def test_worked_update_sequence():
    # SAT at cost 26 trims the set and inserts 25; bisection then yields 17.
    bs = BoundSet(lam=0, mu=50, bounds=[5, 12, 22, 27, 40])
    assert bs.apply_sat(26)
    assert bs.mu == 26
    assert bs.bounds == [5, 12, 22, 25]
    assert bs.next_tentative() == 17
    assert bs.bounds == [5, 12, 17, 22, 25]
    # UNSAT at 17 lifts the lower bound to 18; bisection then yields 20.
    assert bs.apply_unsat(17)
    assert bs.lam == 18
    assert bs.bounds == [18, 22, 25]
    assert bs.next_tentative() == 20
    assert bs.bounds == [18, 20, 22, 25]


def test_sat_at_lower_bound_closes():
    bs = BoundSet(lam=3, mu=10, bounds=[3, 5, 8])
    bs.apply_sat(3)
    assert bs.mu == 3
    assert bs.closed


def test_unsat_at_mu_minus_one_closes():
    bs = BoundSet(lam=0, mu=4, bounds=[0, 3])
    bs.apply_unsat(3)
    assert bs.lam == 4
    assert bs.closed


def test_stale_results_ignored():
    bs = BoundSet(lam=5, mu=9, bounds=[5, 7])
    assert not bs.apply_sat(9)
    assert not bs.apply_sat(12)
    assert not bs.apply_unsat(4)
    assert bs.lam == 5 and bs.mu == 9 and bs.bounds == [5, 7]


def test_next_tentative_no_gap():
    bs = BoundSet(lam=3, mu=5, bounds=[3, 4])
    assert bs.next_tentative() is None


def test_sat_removes_bounds_at_or_above_the_new_mu():
    bs = BoundSet(lam=0, mu=20, bounds=[2, 8, 15])
    bs.apply_sat(7)
    assert bs.bounds == [2, 6]


def test_raise_lower_equivalent_to_unsat():
    bs = BoundSet(lam=0, mu=10, bounds=[0, 4, 8])
    assert bs.raise_lower(5)
    assert bs.lam == 5
    assert bs.bounds == [5, 8]
    assert not bs.raise_lower(5)


def test_random_traces_keep_bounds_sound():
    rng = random.Random(99)
    for seed in range(50):
        f = gen_random(seed, num_vars=8, num_hard=5, num_soft=10, clause_len=3)
        optimum = brute_force(f)
        if optimum == HARD_UNSAT:
            continue
        # Simulate arbitrary interleavings of sound worker reports.
        mu0 = len(f.soft)
        bs = initial_bounds(max(1, mu0), 4)
        for _ in range(30):
            if bs.closed:
                break
            b = rng.randint(0, mu0)
            if b >= optimum:
                # a worker at bound b >= optimum finds some model with
                # optimum <= cost <= b
                bs.apply_sat(rng.randint(optimum, b))
            else:
                bs.apply_unsat(b)
            assert bs.lam <= optimum <= max(bs.mu, optimum)
            assert bs.bounds == sorted(set(bs.bounds))
            assert all(bs.lam <= x <= bs.mu - 1 for x in bs.bounds) or bs.closed
            bs.next_tentative()
