"""CDCL SAT engine with assumptions, core extraction and a lookahead surface.

The solver is a conventional conflict-driven clause learner: two watched
literals per clause, first-UIP learning, activity-based branching with
multiplicative decay, phase saving and Luby restarts.  Assumptions are placed
as the first decisions (Eén and Sörensson, SAT 2003), one level each, so
assumption i sits at level i + 1; when one is contradicted, the subset of
assumptions responsible is returned as the core.

Beyond `solve`, the engine exposes `propagate_under`, which learns from any
conflict it meets above level 0, and its `watches` lists, so the guiding-path
generator reuses the propagation and analysis machinery instead of
reimplementing it.

A clause is a plain list of literals whose positions 0 and 1 are watched,
and `watches` is a list indexed by literal in the [0, x1..xn, -xn..-x1]
layout of `assigns`, so `watches[-v]` holds the clauses watching ¬v.  Lists
compare by value and two clauses may hold the same literals, so a clause is
found in a watch list by identity (`is`), never by `==`, `in` or `remove`:
`_maybe_reduce_db` deletes the first entry that is the dropped clause.

Watch lists are lazy (Chaff, MiniSat).  After every conflict-free
propagation a false watched literal means the other watched literal is true
and was assigned at the same or a lower level; so an unsatisfied clause
watches two unfalsified literals, which is all the lookahead's score reads.

Same-search contract.  Every engine given the same clauses, calls and seed
makes the same trail, learned clauses, decisions, models and cores.  The
lookahead's watched-only score and the benchmark's determinism fingerprints
rest on the order-sensitive rules below; a change keeps them, or changes
them knowingly and is measured as a change of search:

- lazy watches: a visited watcher whose other watch is true is skipped;
  otherwise it moves to the first unfalsified literal at position 2 or
  later, is appended to that literal's list, and its old slot is filled by
  the last watcher of the list being scanned;
- propagation takes the trail in order and each watch list front to back;
- learning is first-UIP, bumping variables in the order the analysis meets
  them, and moves the first literal of the second-highest level to
  position 1;
- branching takes the unassigned variable of highest activity, then of
  highest `tie_rank`, then of lowest index, in its saved phase; `tie_rank`
  is the engine's only use of its random generator;
- `add_clauses`, which `__init__` also uses, takes the clauses in order and
  stores each with its unfalsified literals first, in input order, watching
  the first two;
- `solve` places the assumptions in order, propagating after each one.

The hot loops (`_propagate`, `_cancel_until`, `_pick_branch`, `_analyze`,
the decision loops of `solve` and `propagate_under`, and `add_clauses`) bind
lists to locals and read and assign literal values inline on purpose: in
CPython a method call per literal costs more than the work it wraps.
"""

from __future__ import annotations

import random
from collections import namedtuple

VAR_ACT_DECAY = 0.95
LUBY_UNIT = 100
LEARNED_CAP_FACTOR = 10


Sat = namedtuple("Sat", "model")  # variable -> bool
Unsat = namedtuple("Unsat", "core")  # the frozenset of assumptions that cannot all hold


def luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class Engine:
    """Incremental CDCL solver over variables 1..num_vars."""

    def __init__(self, clauses=(), num_vars: int = 0, seed: int = 0):
        self.num_vars = 0
        # Indexed by literal: +1 true, -1 false, 0 unassigned.  The layout
        # [0, x1..xn, -xn..-x1] puts literal -v at Python's assigns[-v].
        self.assigns: list[int] = [0]
        self.levels: list[int] = [0]
        self.reasons: list[list[int] | None] = [None]
        self.phase: list[bool] = [False]
        self.activity: list[float] = [0.0]
        self.tie_rank: list[float] = [0.0]
        self.watches: list[list[list[int]]] = [[]]  # indexed like assigns
        self.seen: list[bool] = [False]  # _analyze's marks, all clear between calls
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.clauses: list[list[int]] = []
        self.learned_clauses: list[list[int]] = []
        self.root_unsat = False
        self.var_inc = 1.0
        self.conflicts = 0
        self.restarts = 0
        self._rng = random.Random(seed)
        self.add_vars(num_vars)
        self.add_clauses(clauses)

    # ------------------------------------------------------------------ vars

    def add_vars(self, n: int) -> None:
        if n <= 0:
            return
        first = self.num_vars + 1
        self.num_vars += n
        self.assigns[first:first] = [0] * (2 * n)
        self.levels += [0] * n
        self.reasons += [None] * n
        self.phase += [False] * n
        self.activity += [0.0] * n
        self.tie_rank += [self._rng.random() for _ in range(n)]
        self.seen += [False] * n
        self.watches[first:first] = [[] for _ in range(2 * n)]

    # --------------------------------------------------------------- clauses

    def add_clauses(self, clauses) -> None:
        """Add problem clauses in order; only legal at decision level 0.

        A repeated literal is kept once.  Each clause is stored with its
        unfalsified literals first, in input order; a unit propagates at once.
        """
        if self.trail_lim:
            raise ValueError("adding clauses requires decision level 0")
        n = self.num_vars
        assigns = self.assigns
        watches = self.watches
        stored = self.clauses
        for lits in clauses:
            unfalsified = []
            falsified = []
            for lit in lits:
                if not (0 < lit <= n or 0 < -lit <= n):
                    raise ValueError(f"literal {lit} out of range")
                # -lit is unfalsified when lit is falsified or unassigned.
                val = assigns[lit]
                if val < 0:
                    if lit in falsified:
                        continue
                    if -lit in unfalsified:
                        raise ValueError(f"tautological clause: contains {-lit} and {lit}")
                    falsified.append(lit)
                else:
                    if lit in unfalsified:
                        continue
                    if -lit in (falsified if val > 0 else unfalsified):
                        raise ValueError(f"tautological clause: contains {-lit} and {lit}")
                    unfalsified.append(lit)
            if self.root_unsat:
                continue
            if len(unfalsified) >= 2:
                clause = unfalsified + falsified
                stored.append(clause)
                watches[unfalsified[0]].append(clause)
                watches[unfalsified[1]].append(clause)
            elif unfalsified:
                # Permanently satisfied or unit at level 0; no watches needed
                # since level-0 falsifications are never undone.
                lit = unfalsified[0]
                stored.append([lit] + falsified)
                if assigns[lit] == 0:
                    self._enqueue(lit, None)
                    if self._propagate() is not None:
                        self._mark_root_unsat()
            else:
                stored.append(falsified)
                self._mark_root_unsat()

    def _mark_root_unsat(self) -> None:
        self.root_unsat = True
        self._cancel_until(0)

    # ----------------------------------------------------------- propagation

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        v = abs(lit)
        self.assigns[lit] = 1
        self.assigns[-lit] = -1
        self.levels[v] = len(self.trail_lim)
        self.reasons[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Propagate pending trail literals; return a conflicting clause or None."""
        trail = self.trail
        assigns = self.assigns
        watches = self.watches
        levels = self.levels
        reasons = self.reasons
        level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches[false_lit]
            i = 0
            end = len(watchers)
            while i < end:
                clause = watchers[i]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                val = assigns[other]
                if val > 0:
                    i += 1
                    continue
                for k in range(2, len(clause)):
                    q = clause[k]
                    if assigns[q] >= 0:
                        clause[1], clause[k] = q, clause[1]
                        watches[q].append(clause)
                        end -= 1
                        watchers[i] = watchers[end]
                        watchers.pop()
                        break
                else:
                    if val == 0:
                        assigns[other] = 1
                        assigns[-other] = -1
                        v = other if other > 0 else -other
                        levels[v] = level
                        reasons[v] = clause
                        trail.append(other)
                    else:
                        self.qhead = qhead
                        return clause
                    i += 1
        self.qhead = qhead
        return None

    def _cancel_until(self, level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= level:
            return
        boundary = trail_lim[level]
        trail = self.trail
        assigns = self.assigns
        phase = self.phase
        reasons = self.reasons
        for lit in trail[boundary:]:
            assigns[lit] = assigns[-lit] = 0
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            reasons[v] = None
        del trail[boundary:]
        del trail_lim[level:]
        self.qhead = boundary

    def _new_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    # -------------------------------------------------------------- analysis

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backtrack level)."""
        levels = self.levels
        activity = self.activity
        trail = self.trail
        seen = self.seen
        var_inc = self.var_inc
        level = len(self.trail_lim)
        learnt: list[int] = [0]  # slot 0 for the asserting literal
        path_count = 0
        p = 0  # no literal is 0, so nothing is skipped in the conflict clause
        index = len(trail) - 1
        clause = confl
        while True:
            for q in clause:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and levels[v] > 0:
                    seen[v] = True
                    act = activity[v] + var_inc
                    activity[v] = act
                    if act > 1e100:
                        for u in range(1, self.num_vars + 1):
                            activity[u] *= 1e-100
                        var_inc *= 1e-100
                    if levels[v] >= level:
                        path_count += 1
                    else:
                        learnt.append(q)
            p = trail[index]
            while not seen[p if p > 0 else -p]:
                index -= 1
                p = trail[index]
            v = p if p > 0 else -p
            clause = self.reasons[v]
            seen[v] = False
            index -= 1
            path_count -= 1
            if path_count == 0:
                break
        learnt[0] = -p
        for q in learnt:  # the only marks left are the lower-level literals'
            seen[q if q > 0 else -q] = False
        self.var_inc = var_inc / VAR_ACT_DECAY
        if len(learnt) == 1:
            return learnt, 0
        # The first literal of the second-highest level moves to the other
        # watch position.
        k = 1
        backtrack = levels[abs(learnt[1])]
        for j in range(2, len(learnt)):
            lv = levels[abs(learnt[j])]
            if lv > backtrack:
                k, backtrack = j, lv
        learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, backtrack

    def _record_learned(self, learnt: list[int], backtrack: int) -> None:
        self._cancel_until(backtrack)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
        else:
            self.learned_clauses.append(learnt)
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
            self._enqueue(learnt[0], learnt)
        self._maybe_reduce_db()

    def _maybe_reduce_db(self) -> None:
        cap = LEARNED_CAP_FACTOR * max(1, len(self.clauses))
        if len(self.learned_clauses) <= cap:
            return
        locked = {id(self.reasons[abs(l)]) for l in self.trail if self.reasons[abs(l)]}
        keep: list[list[int]] = []
        drop = len(self.learned_clauses) // 2
        for idx, clause in enumerate(self.learned_clauses):
            if idx < drop and id(clause) not in locked:
                for watchers in self.watches[clause[0]], self.watches[clause[1]]:
                    # By identity: another clause may hold the same literals.
                    del watchers[next(j for j, c in enumerate(watchers) if c is clause)]
            else:
                keep.append(clause)
        self.learned_clauses = keep

    # ------------------------------------------------------------------ solve

    def _pick_branch(self) -> int:
        """Unassigned variable of highest activity, then highest `tie_rank`,
        in its saved phase; 0 when every variable is assigned."""
        assigns = self.assigns
        activity = self.activity
        tie_rank = self.tie_rank
        best = 0
        best_act = best_tie = -1.0
        for v in range(1, self.num_vars + 1):
            if assigns[v] == 0:
                act = activity[v]
                if act > best_act or (act == best_act and tie_rank[v] > best_tie):
                    best, best_act, best_tie = v, act, tie_rank[v]
        if best == 0:
            return 0
        return best if self.phase[best] else -best

    def _analyze_final(self, p: int) -> frozenset[int]:
        """Assumptions responsible for forcing assumption `p` false."""
        core = {p}
        if not self.trail_lim:
            return frozenset(core)
        seen = {p if p > 0 else -p}
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[i]
            v = lit if lit > 0 else -lit
            if v not in seen:
                continue
            reason = self.reasons[v]
            if reason is None:
                core.add(lit)
            else:
                for q in reason:
                    u = q if q > 0 else -q
                    if u != v and self.levels[u] > 0:
                        seen.add(u)
            seen.discard(v)
        return frozenset(core)

    def solve(self, assumptions=(), deadline=None, clock=None, model_vars: int | None = None):
        """Solve under assumptions; Sat(total model) or Unsat(core ⊆ assumptions).

        The model covers variables 1..`model_vars` (every variable when None),
        so callers that read only their own variables skip the auxiliary ones.
        Raises TimeoutError once `clock()` is past `deadline`, checked on entry
        and at every restart.
        """
        if deadline is not None and clock is not None and clock() > deadline:
            raise TimeoutError("solve deadline exceeded")
        assumptions = list(assumptions)
        n = self.num_vars
        if assumptions and (min(assumptions) < -n or max(assumptions) > n or 0 in assumptions):
            bad = next(p for p in assumptions if not (0 < p <= n or 0 < -p <= n))
            raise ValueError(f"assumption {bad} out of range")
        if self.root_unsat:
            return Unsat(frozenset())
        self._cancel_until(0)
        if self._propagate() is not None:
            self._mark_root_unsat()
            return Unsat(frozenset())
        trail_lim = self.trail_lim
        assigns = self.assigns
        conflicts_until_restart = LUBY_UNIT * luby(self.restarts + 1)
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_until_restart -= 1
                if not trail_lim:
                    self._mark_root_unsat()
                    return Unsat(frozenset())
                learnt, backtrack = self._analyze(confl)
                self._record_learned(learnt, backtrack)
                continue
            if conflicts_until_restart <= 0:
                self.restarts += 1
                conflicts_until_restart = LUBY_UNIT * luby(self.restarts + 1)
                self._cancel_until(0)
                if deadline is not None and clock is not None and clock() > deadline:
                    raise TimeoutError("solve deadline exceeded")
                continue
            level = len(trail_lim)
            if level < len(assumptions):
                p = assumptions[level]
                val = assigns[p]
                if val < 0:
                    core = self._analyze_final(p)
                    self._cancel_until(0)
                    return Unsat(core)
                self._new_level()  # keep level == assumption index
                if val == 0:
                    self._enqueue(p, None)
                continue
            lit = self._pick_branch()
            if lit == 0:
                last = n if model_vars is None else model_vars
                model = {v: assigns[v] > 0 for v in range(1, last + 1)}
                self._cancel_until(0)
                return Sat(model)
            self._new_level()
            self._enqueue(lit, None)

    # ------------------------------------------------- lookahead surface

    def propagate_under(self, decisions) -> frozenset[int] | None:
        """Unit-propagation closure of `decisions` from decision level 0,
        decisions excluded, or None on a conflict.

        A conflict in a clause above level 0 is learned from first, through
        `analyze_and_learn`.  The engine always ends at level 0.
        """
        decisions = list(decisions)
        dec_set = set(decisions)
        if any(-d in dec_set for d in decisions):
            raise ValueError("decisions contain complementary literals")
        self._cancel_until(0)
        if self.root_unsat:
            return None
        if self._propagate() is not None:
            self._mark_root_unsat()
            return None
        trail = self.trail
        assigns = self.assigns
        for d in decisions:
            if not 0 < abs(d) <= self.num_vars:
                raise ValueError(f"decision {d} out of range")
            val = assigns[d]
            if val > 0:
                continue
            if val < 0:
                # Complement already implied; no falsified clause to analyze.
                self._cancel_until(0)
                return None
            self._new_level()
            self._enqueue(d, None)
            confl = self._propagate()
            if confl is not None:
                self.analyze_and_learn(confl)
                return None
        implied = frozenset(trail) - dec_set
        self._cancel_until(0)
        return implied

    def analyze_and_learn(self, confl: list[int]) -> None:
        """Learn the first-UIP clause from `confl`, falsified by the current
        trail above level 0, and return to level 0."""
        if not self.trail_lim:
            raise ValueError("a conflict at level 0 has nothing to learn")
        self.conflicts += 1
        learnt, backtrack = self._analyze(confl)
        self._record_learned(learnt, backtrack)
        self._cancel_until(0)
        if self._propagate() is not None:
            self._mark_root_unsat()
