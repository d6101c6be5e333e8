"""Bound bookkeeping for search-space splitting.

The master keeps a proven lower bound, the best known upper bound, and a
sorted set of tentative bounds under test by workers; which worker holds
which bound is in the master's task ledger.  SAT results pull the upper bound
down (inserting the next useful tentative, μ-1); UNSAT results push the lower
bound up.  New tentatives bisect the widest remaining gap.  The optimum is
found once the two bounds meet.  Bounds only leave the window: all of them
lie in [λ, μ-1], and λ only rises and μ only falls.
"""

from __future__ import annotations


class BoundSet:
    def __init__(self, lam: int, mu: int, bounds: list[int] | None = None):
        self.lam = lam  # proven lower bound
        self.mu = mu  # best known upper bound (cost of some model)
        self.bounds = [] if bounds is None else bounds  # sorted, distinct

    def __eq__(self, other):
        if not isinstance(other, BoundSet):
            return NotImplemented
        return (self.lam, self.mu, self.bounds) == (other.lam, other.mu, other.bounds)

    def __repr__(self):
        return f"BoundSet(lam={self.lam}, mu={self.mu}, bounds={self.bounds})"

    def _insert(self, b: int) -> None:
        if b not in self.bounds:
            self.bounds.append(b)
            self.bounds.sort()

    def apply_sat(self, cost: int) -> bool:
        """A worker found a model of the given cost; stale reports are ignored."""
        if cost >= self.mu:
            return False
        self.mu = cost
        self.bounds = [b for b in self.bounds if b < cost]
        if cost - 1 >= self.lam:
            self._insert(cost - 1)
        return True

    def apply_unsat(self, bound: int) -> bool:
        """A worker proved nothing exists at `bound`; so `bound`+1 is a lower bound."""
        if bound < self.lam:
            return False
        self.lam = bound + 1
        self.bounds = [b for b in self.bounds if b > bound]
        if self.lam <= self.mu - 1:
            self._insert(self.lam)
        return True

    def raise_lower(self, lam: int) -> bool:
        """A proven lower bound (a task's `report_done`): λ = max(λ, lam)."""
        if lam <= self.lam:
            return False
        return self.apply_unsat(lam - 1)

    def next_tentative(self) -> int | None:
        """Bisect the widest adjacent gap (ties: lowest pair); None if all gaps <= 1."""
        best_gap = 1
        best_pair = None
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            if hi - lo > best_gap:
                best_gap = hi - lo
                best_pair = (lo, hi)
        if best_pair is None:
            return None
        mid = (best_pair[0] + best_pair[1]) // 2
        self._insert(mid)
        return mid

    @property
    def closed(self) -> bool:
        return self.lam >= self.mu


def initial_bounds(mu: int, k: int) -> BoundSet:
    """Evenly split [0, μ-1] into k tentative bounds plus the sentinel 0."""
    if k < 1 or mu < 1:
        raise ValueError("need mu >= 1 and k >= 1")
    values = sorted({i * (mu - 1) // k for i in range(k + 1)})
    return BoundSet(lam=0, mu=mu, bounds=values)
