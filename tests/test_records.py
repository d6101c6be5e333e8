"""Value semantics of the package's records: immutable, truthy, equal by
fields, and each default payload a fresh dict."""

import pytest

from distmaxsat.bounds import BoundSet
from distmaxsat.cardinality import encode_totalizer
from distmaxsat.engine import Implied, Sat, Unsat
from distmaxsat.formula import WcnfFormula, relax
from distmaxsat.lookahead import GuidingPath
from distmaxsat.orchestration import SimOutcome, Task, Verdict
from distmaxsat.sequential import Core, HardUnsat, Optimum
from distmaxsat.transport import Message

FORMULA = WcnfFormula(2, ((1, 2),), ((-1,), (-2,)))

# (builder, a field it has, or any name for a record without fields)
RECORDS = [
    (lambda: FORMULA, "num_vars"),
    (lambda: relax(FORMULA), "clauses"),
    (lambda: Sat({1: True}), "model"),
    (lambda: Unsat(frozenset()), "core"),
    (lambda: Implied(frozenset({2})), "literals"),
    (lambda: encode_totalizer([1, 2, 3], 4, k=1), "outputs"),
    (lambda: Message("assign_path", "master", {"task": 3, "path": [], "mu": 4}), "payload"),
    (lambda: Message("hello", "w1"), "kind"),
    (lambda: Optimum(1, {1: True, 2: False}), "cost"),
    (lambda: HardUnsat(), "cost"),
    (lambda: Core((3,), False), "softs"),
    (lambda: GuidingPath((1, -2), 0), "decisions"),
    (lambda: Verdict("unknown"), "status"),
    (lambda: Task(2, 3), "cap"),
    (lambda: SimOutcome(Verdict("optimum", 0, {}), [0], [], [], None), "verdict"),
]


@pytest.mark.parametrize("build, name", RECORDS, ids=[f"{type(b()).__name__}-{n}" for b, n in RECORDS])
def test_record_is_immutable_truthy_and_equal_by_fields(build, name):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert record
    assert record == build()
    assert not record != build()


def test_records_keep_their_defaults_and_properties():
    first, second = Message("hello", "w1"), Message("hello", "w1")
    assert first.payload == {} and first.payload is not second.payload
    assert GuidingPath((1, -2), 0).parent_index is None and GuidingPath((1, -2), 0).depth == 2
    assert Task(2, 3).path == ()
    assert Verdict("unknown") == Verdict(status="unknown", cost=None, model=None)
    assert FORMULA.num_soft == 2 and relax(FORMULA).num_vars == 4
    assert HardUnsat() != Optimum(0, {})


def test_bound_set_stays_mutable_and_equal_by_fields():
    window = BoundSet(lam=0, mu=5)
    assert window == BoundSet(0, 5, [])
    window.apply_sat(3)
    assert window == BoundSet(lam=0, mu=3, bounds=[2])
    assert window != BoundSet(lam=0, mu=3, bounds=[])
