"""Incremental, k-bounded totalizer encoding of "at most b of these literals".

A balanced tree of unary counters with only the at-most half: t true inputs
below a node force its `outputs[t-1]`, so assuming ¬outputs[b] caps the
count at b.  Nodes keep outputs only up to k+1, k being the largest bound
asked for so far.  After Martins, Joshi, Manquinho and Lynce ("Incremental
Cardinality Constraints for MaxSAT", CP 2014) the tree grows without
re-encoding: new inputs become a subtree merged with the old root by one new
node, and a larger k adds the missing outputs.  Every clause comes out of an
`encode_totalizer` call (a build, a merge or a raise of k); `Totalizer`
keeps one tree inside one engine and grows it on demand.
"""

from __future__ import annotations

from collections import namedtuple

# `outputs`: min(size, k+1) counter outputs, a leaf's being its input;
# `left`/`right`: subtrees (None at a leaf); `size`: inputs below the node.
_Node = namedtuple("_Node", "outputs left right size")


# The tree over all `inputs` so far, with its root's `outputs` and bound `k`;
# `aux_vars` (a range) and `clauses` are this step's only.
AtMostEncoding = namedtuple("AtMostEncoding", "inputs outputs aux_vars clauses k root")


def encode_totalizer(inputs, fresh_from: int, k: int | None = None, base: AtMostEncoding | None = None) -> AtMostEncoding:
    """Encode `inputs`, or grow `base` by them; auxiliary variables start at `fresh_from`.

    Outputs are kept up to k+1 (all when k is None; never below `base.k`).
    Growing raises every node of `base` to k, then merges a subtree over the
    new inputs with its root.  The result lists only this step's variables
    and clauses.
    """
    inputs = tuple(inputs)
    every = (base.inputs if base is not None else ()) + inputs
    if not every:
        raise ValueError("totalizer needs at least one input")
    if len({abs(l) for l in every}) != len(every):
        raise ValueError("duplicate input variables")
    k = len(every) - 1 if k is None else k
    k = max(k, base.k) if base is not None else k
    if k < 0:
        raise ValueError(f"k {k} is negative")

    clauses: list[tuple[int, ...]] = []
    next_var = fresh_from

    def join(left: _Node, right: _Node, have: tuple[int, ...] = ()) -> _Node:
        """Node over two subtrees, with outputs extended from `have` to min(size, k+1)."""
        nonlocal next_var
        size = left.size + right.size
        m = min(size, k + 1)
        outputs = have + tuple(range(next_var, next_var + m - len(have)))
        next_var += m - len(have)
        lo, ro = left.outputs, right.outputs
        for s in range(len(have) + 1, m + 1):
            out = outputs[s - 1]
            for a in range(max(0, s - len(ro)), min(s, len(lo)) + 1):
                b = s - a
                if not a:
                    clauses.append((-ro[b - 1], out))
                elif not b:
                    clauses.append((-lo[a - 1], out))
                else:
                    clauses.append((-lo[a - 1], -ro[b - 1], out))
        return _Node(outputs, left, right, size)

    def raise_k(node: _Node) -> _Node:
        # A node that already has min(size, k+1) outputs has full children too.
        if len(node.outputs) == min(node.size, k + 1):
            return node
        return join(raise_k(node.left), raise_k(node.right), node.outputs)

    def build(lits: tuple[int, ...]) -> _Node:
        if len(lits) == 1:
            return _Node(lits, None, None, 1)
        mid = len(lits) // 2
        return join(build(lits[:mid]), build(lits[mid:]))

    root = raise_k(base.root) if base is not None else None
    if inputs:
        root = build(inputs) if root is None else join(root, build(inputs))
    return AtMostEncoding(every, root.outputs, range(fresh_from, next_var), tuple(clauses), k, root)


def bound_assumptions(enc: AtMostEncoding, b: int) -> list[int]:
    """[¬outputs[b]], forbidding more than b true inputs; [] for b = n.  A
    bound above the encoding's k has no output: grow the encoding first."""
    n = len(enc.inputs)
    if b < 0 or b > n:
        raise ValueError(f"bound {b} outside 0..{n}")
    if b == n:
        return []
    if b >= len(enc.outputs):
        raise ValueError(f"bound {b} above the encoding's k={enc.k}")
    return [-enc.outputs[b]]


class Totalizer:
    """One at-most constraint inside `engine`, over inputs that may grow.
    The tree is built at the first bound that can bite, truncated there;
    later inputs are merged and larger bounds raise k, one step each."""

    def __init__(self, engine, inputs=()):
        self.engine = engine
        self.enc: AtMostEncoding | None = None
        self.pending: list[int] = list(inputs)  # inputs not yet in the tree

    def extend(self, inputs) -> None:
        self.pending.extend(inputs)

    def at_most(self, b: int) -> list[int]:
        """Assumptions capping the true inputs at b, growing the tree if needed."""
        n = len(self.pending) + (len(self.enc.inputs) if self.enc is not None else 0)
        if b >= n:
            return []
        if self.pending or b > self.enc.k:
            engine = self.engine
            self.enc = encode_totalizer(self.pending, engine.num_vars + 1, b, self.enc)
            self.pending = []
            engine.add_vars(len(self.enc.aux_vars))
            engine.add_clauses(self.enc.clauses)
        return bound_assumptions(self.enc, b)
