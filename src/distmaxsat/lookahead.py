"""Guiding-path generation by breadth-first lookahead splitting.

The generator grows a binary tree over variables that occur in soft clauses,
expanding open prefixes from a FIFO queue that starts at `d0`.  Expanding a
node unit-propagates its decision prefix through a CDCL engine, which learns
from a conflict itself.  Otherwise the node is emitted as a guiding path once
the dynamic cutoff fires, |D| * |D ∪ I| > θ * |Vars|, or it splits on the best
soft variable and queues both children.  θ grows 5% per node and shrinks 30% on
conflicts and on the depth guard |D| + log2(#hard) > 25, so conflict-rich
regions yield shorter paths.

An optional budget `max_paths` bounds the work: once the emitted paths plus the
open prefixes reach it, expansion stops and the open prefixes are emitted as
they stand, in queue order (the "frontier").  Each expansion adds at most one to
that sum, so a call emits at most max(max_paths, 2) paths; the root is always
expanded, so a contradictory root is still detected.  Without a budget the same
loop runs until every prefix is emitted or pruned.

Every θ update and every emission is recorded in a trace so runs can be
replayed and audited.  Emitted paths are immutable; any two of them conflict on
some variable, and together they cover every assignment that satisfies the
hard clauses.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple

from .engine import Engine

ROOT_CUTOFF = 1000.0
RESPLIT_CUTOFF = 5000.0
CUTOFF_GROWTH = 1.05
CUTOFF_SHRINK = 0.70
DEPTH_GUARD = 25


class GuidingPath(namedtuple("GuidingPath", "decisions gen_index parent_index", defaults=(None,))):
    """A cube of decision literals, numbered in generation order; a path
    from a resplit names the path it splits as `parent_index`."""

    __slots__ = ()

    @property
    def depth(self) -> int:
        return len(self.decisions)


class GenerationResult:
    """One `generate` call: its paths, whether the root conflicted, and its
    trace of (event, θ) pairs."""

    def __init__(self, paths: list[GuidingPath], root_conflict: bool, trace: list[tuple[str, float]]):
        self.paths = paths
        self.root_conflict = root_conflict
        self.trace = trace


def rank_key(pos_score: float, neg_score: float, var: int):
    """Sort key: product first, sum to break ties, lowest index last."""
    return (pos_score * neg_score, pos_score + neg_score, -var)


def clause_reduction_score(engine: Engine, assigned: dict[int, bool], lit: int, l_max: int) -> float:
    """Weighted count of the clauses watching ¬lit that `lit` strictly shortens
    and leaves unsatisfied.

    Each counts 5^(l_max - k), k being its length after the shortening,
    lengths counting only unassigned literals.  Only the engine's watch list
    of ¬lit, `engine.watches[-lit]`, is read, each clause there being a plain
    list of literals read in place; so a clause holding ¬lit at an unwatched
    position does not count: a cheap stand-in for a scan of every clause.
    """
    if abs(lit) in assigned:
        raise ValueError(f"literal {lit} already assigned")
    total = 0.0
    for clause in engine.watches[-lit]:
        satisfied = False
        reduced_len = 0
        for q in clause:
            val = assigned.get(abs(q))
            if val is None:
                if q != -lit:
                    reduced_len += 1
            elif val == (q > 0):
                satisfied = True
                break
        if satisfied:
            continue
        total += 5.0 ** (l_max - reduced_len)
    return total


def polarity_counts(soft_clauses, assigned: dict[int, bool], lit: int) -> tuple[int, int]:
    """(soft clauses newly falsified, soft clauses newly satisfied) by `lit`."""
    falsified = satisfied = 0
    for clause in soft_clauses:
        unassigned = []
        is_sat = False
        for q in clause:
            val = assigned.get(abs(q))
            if val is None:
                unassigned.append(q)
            elif val == (q > 0):
                is_sat = True
                break
        if is_sat:
            continue
        if lit in unassigned:
            satisfied += 1
        elif unassigned == [-lit]:
            falsified += 1
    return falsified, satisfied


def choose_variable(engine, assigned, soft_vars, l_max) -> int | None:
    """Unassigned soft variable maximizing the watched-literal reduction score."""
    best = None
    best_key = None
    for v in soft_vars:
        if v in assigned:
            continue
        pos = clause_reduction_score(engine, assigned, v, l_max)
        neg = clause_reduction_score(engine, assigned, -v, l_max)
        key = rank_key(pos, neg, v)
        if best_key is None or key > best_key:
            best_key = key
            best = v
    return best


def choose_polarity(soft_clauses, assigned, var: int) -> int:
    """Branch direction falsifying fewer soft clauses; ties satisfy more."""
    f_pos, s_pos = polarity_counts(soft_clauses, assigned, var)
    f_neg, s_neg = polarity_counts(soft_clauses, assigned, -var)
    if f_pos != f_neg:
        return var if f_pos < f_neg else -var
    if s_pos != s_neg:
        return var if s_pos > s_neg else -var
    return var


class PathGenerator:
    """Owns one engine (hard clauses plus anything learned) across invocations.

    Re-splitting a path reuses the same generator so learned clauses persist
    and generation indices stay globally ordered.
    """

    def __init__(self, hard_clauses, soft_clauses, num_vars: int, seed: int = 0):
        hard_clauses = [tuple(c) for c in hard_clauses]
        self.engine = Engine(hard_clauses, num_vars=num_vars, seed=seed)
        # The soft clauses holding ±v, the only ones choose_polarity counts for v.
        self.soft_with: dict[int, list[tuple[int, ...]]] = {}
        for c in soft_clauses:
            c = tuple(c)
            for v in {abs(l) for l in c}:
                self.soft_with.setdefault(v, []).append(c)
        self.soft_vars = sorted(self.soft_with)
        # Frozen at construction: learned clauses never move these.
        self.hard_count = len(hard_clauses)
        self.var_count = len({abs(l) for c in hard_clauses for l in c})
        self.l_max = max((len(c) for c in hard_clauses), default=0)
        self.theta = ROOT_CUTOFF
        self.next_index = 0

    def generate(
        self,
        d0=(),
        theta0: float = ROOT_CUTOFF,
        parent_index: int | None = None,
        max_paths: int | None = None,
    ) -> GenerationResult:
        if theta0 <= 0:
            raise ValueError("cutoff must be positive")
        self.theta = float(theta0)
        result = GenerationResult(paths=[], root_conflict=False, trace=[("init", self.theta)])
        trace = result.trace
        engine = self.engine
        budget = math.inf if max_paths is None else max_paths
        queue = deque([tuple(d0)])
        expanded = 0
        while queue and (expanded == 0 or len(result.paths) + len(queue) < budget):
            decisions = queue.popleft()
            expanded += 1
            self.theta *= CUTOFF_GROWTH
            trace.append(("grow", self.theta))
            implied = engine.propagate_under(decisions)
            if implied is None:
                self.theta *= CUTOFF_SHRINK
                trace.append(("shrink", self.theta))
                trace.append(("conflict", self.theta))
                if expanded == 1:
                    result.root_conflict = True
                continue
            if self._depth_guard(len(decisions)):
                self.theta *= CUTOFF_SHRINK
                trace.append(("shrink", self.theta))
            if len(decisions) * (len(decisions) + len(implied)) > self.theta * self.var_count:
                self._emit(decisions, parent_index, result, "emit")
                continue
            assigned = {abs(l): l > 0 for l in decisions}
            for l in implied:
                assigned[abs(l)] = l > 0
            var = choose_variable(engine, assigned, self.soft_vars, self.l_max)
            if var is None:
                # Every soft variable is assigned; nothing left worth splitting.
                self._emit(decisions, parent_index, result, "emit")
                continue
            lit = choose_polarity(self.soft_with[var], assigned, var)
            queue.append(decisions + (lit,))
            queue.append(decisions + (-lit,))
        for decisions in queue:
            self._emit(decisions, parent_index, result, "frontier")
        return result

    def _depth_guard(self, depth: int) -> bool:
        return self.hard_count > 0 and depth + math.log2(self.hard_count) > DEPTH_GUARD

    def _emit(self, decisions, parent_index, result, op: str) -> None:
        result.paths.append(
            GuidingPath(decisions=decisions, gen_index=self.next_index, parent_index=parent_index)
        )
        self.next_index += 1
        result.trace.append((op, self.theta))


def dump_paths(paths) -> str:
    """Paths as iCNF-style cube lines: "a <lits> 0"."""
    return "".join("a " + " ".join(str(l) for l in p.decisions) + " 0\n" for p in paths)
