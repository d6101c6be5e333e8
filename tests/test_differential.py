"""Differential checks above the brute-force oracle's 24-variable limit.

With no oracle to compare against, every algorithm and mode must agree with
every other on the verdict and the cost, and each model must satisfy the hard
clauses and cost exactly what was reported.
"""

import pytest

from distmaxsat.formula import cost, relax, serialize_wcnf
from distmaxsat.oracle import gen_random
from distmaxsat.orchestration import run_sim
from distmaxsat.sequential import HardUnsat, Optimum, linear_su, msu3, oll

from test_cli import free_port, socket_run

NUM_INSTANCES = 12


def instance(i: int):
    """30-50 variables, mixed 3/4-literal clauses; every fourth draw has so
    many hard clauses that they are unsatisfiable."""
    num_vars = 30 + (7 * i) % 21
    ratio = 8.0 if i % 4 == 3 else 4.5
    return gen_random(1000 + i, num_vars, int(num_vars * ratio), 40, 4)


def checked(f, status, reported, model):
    """(status, cost) after checking that the model costs what was reported."""
    if status == "unsatisfiable":
        assert model is None
        return status, None
    assert status == "optimum"
    assert cost(f, model) == reported  # raises when a hard clause is violated
    return status, reported


def sequential_verdict(outcome, f):
    if isinstance(outcome, HardUnsat):
        return "unsatisfiable", None
    assert isinstance(outcome, Optimum)
    return checked(f, "optimum", outcome.cost, outcome.model)


@pytest.fixture(scope="module")
def verdicts():
    out = []
    for i in range(NUM_INSTANCES):
        f = instance(i)
        runs = {
            "linear": sequential_verdict(linear_su(relax(f), seed=i), f),
            "msu3": sequential_verdict(msu3(f, seed=i), f),
            "oll": sequential_verdict(oll(f, seed=i), f),
        }
        for algo in ("sss", "gp"):
            for workers in (2, 3):
                v = run_sim(f, algo, num_workers=workers, seed=i).verdict
                runs[f"sim {algo} {workers}w"] = checked(f, v.status, v.cost, v.model)
        out.append((f, runs))
    return out


def test_every_algorithm_agrees_above_the_oracle_limit(verdicts):
    for i, (f, runs) in enumerate(verdicts):
        assert f.num_vars > 24
        assert len(set(runs.values())) == 1, (i, runs)
    found = [runs["linear"] for _f, runs in verdicts]
    assert sum(status == "unsatisfiable" for status, _ in found) >= 2
    assert sum(status == "optimum" and c > 0 for status, c in found) >= 6


@pytest.mark.parametrize("algo", ["sss", "gp"])
def test_socket_modes_agree_above_the_oracle_limit(verdicts, tmp_path, algo):
    for i in (1, 3):  # one with an optimum, one hard-UNSAT draw
        f, runs = verdicts[i]
        status, expected = runs["linear"]
        path = tmp_path / f"diff{i}.wcnf"
        path.write_text(serialize_wcnf(f))
        results = socket_run(str(path), algo, 2, free_port(), [])
        lines = results["out"].splitlines()
        if status == "unsatisfiable":
            assert results["code"] == 20
            assert "s UNSATISFIABLE" in lines
            continue
        assert results["code"] == 30
        assert [l for l in lines if l.startswith("o ")][-1] == f"o {expected}"
        v_line = next(l for l in lines if l.startswith("v "))
        model = {abs(int(t)): int(t) > 0 for t in v_line.split()[1:]}
        assert cost(f, model) == expected
