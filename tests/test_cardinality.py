import itertools
import random

import pytest

from distmaxsat.cardinality import Totalizer, bound_assumptions, encode_totalizer
from distmaxsat.engine import Engine, Sat, Unsat
from distmaxsat.sequential import Optimum, msu3

from conftest import pigeonhole


def expected_clause_count(n: int, k: int | None = None) -> int:
    """Independent recursion for the at-most tree truncated at k: a merge of
    sizes p, q keeps min(p+q, k+1) outputs and emits one clause for every
    pair (a, b) of child counts, each capped at k+1, with 1 <= a+b <= that."""
    if k is None:
        k = n - 1
    if n == 1:
        return 0
    p = n // 2
    q = n - p
    cap = k + 1
    pairs = sum(
        1
        for a in range(min(p, cap) + 1)
        for b in range(min(q, cap) + 1)
        if 1 <= a + b <= min(n, cap)
    )
    return expected_clause_count(p, k) + expected_clause_count(q, k) + pairs


def extendable(enc, input_bits, extra_assumptions=()):
    """Can the given input assignment be extended to a model of the encoding?"""
    top = max(
        [abs(l) for l in enc.inputs]
        + [abs(l) for l in enc.outputs]
        + list(enc.aux_vars or [0])
    )
    engine = Engine(enc.clauses, num_vars=top)
    assumptions = [
        lit if bit else -lit for lit, bit in zip(enc.inputs, input_bits)
    ] + list(extra_assumptions)
    return engine.solve(assumptions)


def tree_nodes(node):
    """Every internal node of an encoding's tree."""
    if node.left is None:
        return []
    return tree_nodes(node.left) + tree_nodes(node.right) + [node]


def test_single_input_is_its_own_output():
    enc = encode_totalizer([4], fresh_from=10)
    assert enc.outputs == (4,)
    assert enc.clauses == ()
    assert len(enc.aux_vars) == 0


def test_rejects_duplicate_inputs():
    with pytest.raises(ValueError, match="duplicate"):
        encode_totalizer([1, 2, 1], fresh_from=5)
    base = encode_totalizer([1, 2], fresh_from=5)
    with pytest.raises(ValueError, match="duplicate"):
        encode_totalizer([3, 2], fresh_from=8, base=base)


def test_rejects_empty_inputs():
    with pytest.raises(ValueError):
        encode_totalizer([], fresh_from=5)


def test_outputs_are_exact_counters_n3():
    # At-most half only: outputs set to "count >= t" always extend the
    # inputs, so the encoding never forbids a count it should allow.
    enc = encode_totalizer([1, 2, 3], fresh_from=4)
    for bits in itertools.product([False, True], repeat=3):
        count = sum(bits)
        exact = [out if count >= t else -out for t, out in enumerate(enc.outputs, start=1)]
        assert isinstance(extendable(enc, bits, exact), Sat), bits


def test_output_extension_unique_n3():
    # Outputs up to the count are forced true; the ones above it are free.
    enc = encode_totalizer([1, 2, 3], fresh_from=4)
    for bits in itertools.product([False, True], repeat=3):
        count = sum(bits)
        for t, out in enumerate(enc.outputs, start=1):
            if count >= t:
                assert isinstance(extendable(enc, bits, [-out]), Unsat), (bits, t)
            else:
                assert isinstance(extendable(enc, bits, [out]), Sat), (bits, t)


def test_clause_count_matches_recursive_formula():
    for n in range(1, 12):
        enc = encode_totalizer(list(range(1, n + 1)), fresh_from=n + 1)
        assert len(enc.clauses) == expected_clause_count(n)
        for k in range(n):
            enc = encode_totalizer(list(range(1, n + 1)), fresh_from=n + 1, k=k)
            assert len(enc.clauses) == expected_clause_count(n, k), (n, k)
            assert len(enc.outputs) == min(n, k + 1)


def test_raising_k_adds_exactly_the_missing_clauses():
    # Built at k1 and raised to k2, the tree has the clauses of one built at k2.
    for n in range(2, 12):
        inputs = list(range(1, n + 1))
        for k1 in range(n - 1):
            low = encode_totalizer(inputs, fresh_from=n + 1, k=k1)
            for k2 in range(k1 + 1, n):
                high = encode_totalizer((), fresh_from=low.aux_vars.stop, k=k2, base=low)
                assert len(low.clauses) + len(high.clauses) == expected_clause_count(n, k2), (n, k1, k2)
                assert high.outputs[: len(low.outputs)] == low.outputs


def test_aux_vars_contiguous():
    enc = encode_totalizer([1, 2, 3, 4, 5], fresh_from=6)
    assert enc.aux_vars.start == 6
    used = {abs(l) for c in enc.clauses for l in c}
    assert used <= set(range(1, enc.aux_vars.stop))
    grown = encode_totalizer([7, 8], fresh_from=enc.aux_vars.stop, base=enc)
    assert grown.aux_vars.start == enc.aux_vars.stop
    assert {abs(l) for c in grown.clauses for l in c} <= set(range(1, grown.aux_vars.stop))


def test_bound_assumptions_edges():
    enc = encode_totalizer([1, 2, 3], fresh_from=4)
    assert bound_assumptions(enc, 3) == []
    assert bound_assumptions(enc, 0) == [-enc.outputs[0]]
    with pytest.raises(ValueError):
        bound_assumptions(enc, 4)
    with pytest.raises(ValueError):
        bound_assumptions(enc, -1)
    # A truncated tree has no output for a bound above its k.
    low = encode_totalizer([1, 2, 3, 4], fresh_from=5, k=1)
    assert bound_assumptions(low, 1) == [-low.outputs[1]]
    assert bound_assumptions(low, 4) == []
    with pytest.raises(ValueError, match="above"):
        bound_assumptions(low, 2)


def test_bound_zero_forces_all_inputs_false():
    enc = encode_totalizer([1, 2, 3], fresh_from=4)
    for bits in itertools.product([False, True], repeat=3):
        result = extendable(enc, bits, bound_assumptions(enc, 0))
        assert isinstance(result, Sat if sum(bits) == 0 else Unsat)


def test_bound_one_of_three():
    enc = encode_totalizer([1, 2, 3], fresh_from=4)
    for bits in itertools.product([False, True], repeat=3):
        result = extendable(enc, bits, bound_assumptions(enc, 1))
        assert isinstance(result, Sat if sum(bits) <= 1 else Unsat)


def test_exactness_all_n_up_to_8():
    for n in range(1, 9):
        inputs = list(range(1, n + 1))
        for k in (None, n // 2):
            enc = encode_totalizer(inputs, fresh_from=n + 1, k=k)
            for b in range(n + 1):
                if n > b >= len(enc.outputs):
                    continue
                lits = bound_assumptions(enc, b)
                for bits in itertools.product([False, True], repeat=n):
                    result = extendable(enc, bits, lits)
                    assert isinstance(result, Sat if sum(bits) <= b else Unsat), (n, k, b, bits)


def test_monotone_outputs():
    # Unit propagation from the inputs sets exactly a prefix of the outputs
    # true, as long as the count, and assigns nothing above it.
    enc = encode_totalizer([1, 2, 3, 4, 5], fresh_from=6)
    for bits in itertools.product([False, True], repeat=5):
        engine = Engine(enc.clauses, num_vars=enc.aux_vars.stop - 1)
        implied = engine.propagate_under([l if bit else -l for l, bit in zip(enc.inputs, bits)])
        count = sum(bits)
        assert [o in implied for o in enc.outputs] == [t <= count for t in range(1, 6)]
        assert not any(-o in implied for o in enc.outputs)


def test_negated_input_literals():
    # Inputs may be arbitrary literals, not just positive variables.
    enc = encode_totalizer([-1, 2, -3], fresh_from=4)
    for bits in itertools.product([False, True], repeat=3):
        count = sum(bits)
        exact = [out if count >= t else -out for t, out in enumerate(enc.outputs, start=1)]
        assert isinstance(extendable(enc, bits, exact), Sat)
        for b in range(4):
            result = extendable(enc, bits, bound_assumptions(enc, b))
            assert isinstance(result, Sat if count <= b else Unsat), (bits, b)


def test_incremental_exactness_in_one_engine():
    """Random build / extend / raise-k sequences on one totalizer in one
    engine, learned clauses kept across calls: after every step, every bound
    the tree can answer (and finally every bound at all) holds exactly."""
    rng = random.Random(2014)

    def check(totalizer, inputs, bounds):
        for b in bounds:
            lits = totalizer.at_most(b)
            for bits in itertools.product([False, True], repeat=len(inputs)):
                fixed = [v if bit else -v for v, bit in zip(inputs, bits)]
                result = totalizer.engine.solve(fixed + lits)
                assert isinstance(result, Sat if sum(bits) <= b else Unsat), (inputs, b, bits)

    for _case in range(40):
        n = rng.randint(1, 7)
        order = rng.sample(range(1, n + 1), n)
        totalizer = Totalizer(Engine(num_vars=n, seed=_case))
        inputs: list[int] = []
        while len(inputs) < n or rng.random() < 0.3:
            if len(inputs) < n and (not inputs or rng.random() < 0.5):
                new = order[len(inputs) : len(inputs) + rng.randint(1, n - len(inputs))]
                totalizer.extend(new)
                inputs += new
            check(totalizer, inputs, [rng.randrange(len(inputs))])
            k = totalizer.enc.k if totalizer.enc is not None else -1
            check(totalizer, inputs, range(min(k, len(inputs) - 1) + 1))
        check(totalizer, inputs, range(n + 1))


def test_totalizer_grows_k_on_demand_never_drops_the_bound():
    engine = Engine(num_vars=6)
    totalizer = Totalizer(engine, range(1, 7))
    assert totalizer.at_most(6) == []
    assert totalizer.enc is None  # no bound bites yet: nothing built
    totalizer.at_most(1)
    assert totalizer.enc.k == 1 and len(totalizer.enc.outputs) == 2
    vars_at_k1 = engine.num_vars
    lits = totalizer.at_most(4)
    assert lits == [-totalizer.enc.outputs[4]]
    assert totalizer.enc.k == 4 and engine.num_vars > vars_at_k1
    assert isinstance(engine.solve([1, 2, 3, 4, 5] + lits), Unsat)
    assert isinstance(engine.solve([1, 2, 3, 4, -5, -6] + lits), Sat)


def test_msu3_grows_one_subtree_and_one_merge_node_per_core(monkeypatch):
    from distmaxsat import cardinality

    steps = []
    encode = cardinality.encode_totalizer

    def recorded(inputs, fresh_from, k=None, base=None):
        enc = encode(inputs, fresh_from, k, base)
        steps.append((tuple(inputs), base, enc))
        return enc

    monkeypatch.setattr(cardinality, "encode_totalizer", recorded)
    lower_bounds = []
    outcome = msu3(pigeonhole(4, holes=3), on_lower_bound=lower_bounds.append)
    assert isinstance(outcome, Optimum) and outcome.cost == 4
    assert len(steps) <= len(lower_bounds)
    assert sum(base is not None for _n, base, _e in steps) >= 2
    for new, base, enc in steps:
        if base is not None:
            # Old tree (raised to k) on the left, a subtree over the new
            # inputs on the right, and one merge node above them.
            assert enc.root.left.outputs[: len(base.outputs)] == base.outputs
            assert enc.root.right.size == len(new)
            assert enc.inputs == base.inputs + new
    # Every variable ever added belongs to the final tree: nothing re-encoded.
    final = steps[-1][2]
    added = sum(len(enc.aux_vars) for _n, _b, enc in steps)
    assert added == sum(len(node.outputs) for node in tree_nodes(final.root))
    assert all(len(node.outputs) == min(node.size, final.k + 1) for node in tree_nodes(final.root))
