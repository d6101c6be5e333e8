"""The benchmark's references: planted optima and the independent evaluator.

Run with `python3 -m pytest bench/tests -q` from the checkout root.
"""

import random

import pytest

from distmaxsat.formula import WcnfFormula, cost, parse_wcnf
from instances import UNSAT, Instance, brute_force_reference, pigeonhole, random_instance, recost
from run import Solve, check_agreement, percentile


@pytest.mark.parametrize("blocks,holes,seed", [
    (1, 2, 0), (1, 2, 1), (2, 2, 0), (2, 2, 1), (3, 2, 0), (1, 3, 0), (1, 3, 1), (1, 4, 0), (1, 4, 1),
    (4, 2, 2), (2, 3, 2),  # 24 variables, the oracle's limit
])
def test_planted_optimum_matches_brute_force(blocks, holes, seed):
    inst = pigeonhole("p", random.Random(seed), blocks, holes)
    assert inst.num_vars == blocks * (holes + 1) * holes <= 24
    assert brute_force_reference(inst) == inst.planted == blocks


def test_pigeonhole_text_round_trips():
    inst = pigeonhole("p", random.Random(5), 2, 3)
    f = parse_wcnf(inst.text)
    assert (f.num_vars, f.hard, f.soft) == (inst.num_vars, inst.hard, inst.soft)


def test_recost_agrees_with_program_cost():
    rng = random.Random(3)
    for seed in range(40):
        inst = random_instance("r", seed, 8, 6, 10)
        f = WcnfFormula(inst.num_vars, inst.hard, inst.soft)
        model = {v: rng.random() < 0.5 for v in range(1, inst.num_vars + 1)}
        try:
            expected = cost(f, model)
        except ValueError:
            expected = None
        assert recost(inst, model) == expected


def test_recost_rejects_partial_and_hard_violating_models():
    inst = Instance("t", 2, hard=((1, 2),), soft=((-1,), (-2,)))
    assert recost(inst, {1: True}) is None
    assert recost(inst, {1: False, 2: False}) is None
    assert recost(inst, {1: True, 2: False}) == 1


def test_agreement_marks_the_dissenter():
    solves = [Solve("i", a, status="optimum", cost=c) for a, c in (("linear", 4), ("msu3", 4), ("sss", 5))]
    check_agreement(solves)
    assert [s.failure is None for s in solves] == [True, True, False]
    assert solves[2].wrong


def test_agreement_without_majority_fails_all():
    solves = [Solve("i", "linear", status="unsat"), Solve("i", "msu3", status="optimum", cost=2)]
    check_agreement(solves)
    assert all(s.failure is not None for s in solves)


def test_unsat_reference_is_brute_force():
    inst = Instance("u", 1, hard=((1,), (-1,)), soft=())
    assert brute_force_reference(inst) == UNSAT


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)


def test_speed_meter_scales_by_the_kernel_times_on_either_side():
    from run import SPEED_EVERY_S, SPEED_REF_S, SpeedMeter

    probes = iter([0.004, 0.002, 0.001])
    meter = SpeedMeter(probe=lambda: next(probes))
    short, long = Solve("a", "msu3", seconds=SPEED_EVERY_S / 4), Solve("b", "msu3", seconds=SPEED_EVERY_S)
    meter.add([short])
    meter.tick()  # too little solving since the last probe: no probe yet
    assert short.scale == 1.0
    meter.add([long])
    meter.tick()
    assert short.scale == long.scale == pytest.approx(SPEED_REF_S / 0.003)
    last = Solve("c", "gp", seconds=0.001)
    meter.add([last])
    meter.tick(force=True)
    assert last.scale == pytest.approx(SPEED_REF_S / 0.0015)
    assert meter.samples == [0.004, 0.002, 0.001]
