"""Master and worker logic for both distributed strategies.

The master is a single event loop: every piece of shared state lives in it and
mutates only when a decoded message is handled.  Workers own their engines and
never talk to each other; all traffic goes through the master.

Both masters narrow one cost window, the `BoundSet` in `MasterBase`: μ is the
cost of the best model held (`num_soft + 1` before the first one) and λ a
proven lower bound.  Workers report two kinds of fact, models and proofs:

- `report_sat{cost, model}`: a model, sent as soon as it is found; it lowers μ.
- `report_lower_bound{lb}`: no model costs less than `lb`; it raises λ.
- `report_done{task, lb}`: exactly one per `assign_bound`/`assign_path`; `lb`
  is the global lower bound the task proved, 0 if none.  The master caps it at
  bound+1 for a bound probe and at the μ it sent for a path, and a stale task
  (one the master no longer holds for that worker) adds nothing.

Both masters start the same way: one SAT call on the hard clauses
(`initial_upper_bound`) gives the first model, and so the first μ, before any
task is sent.  The master raises λ itself on its own proofs: to
`num_soft + 1` when the hard clauses are unsatisfiable, and to μ once every
guiding path has concluded, because the paths partition the search space.
The run ends in one place, as soon as λ ≥ μ: "optimum" when a model is held,
"unsatisfiable" when none is.

Models only lower μ and proofs only raise λ, so a report that arrives after
the master moved on still applies monotonically.  The whole-formula task of
the gp linear-search worker uses task id -1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import BoundSet, initial_bounds
from .cardinality import Totalizer
from .engine import Engine, Sat, Unsat
from .formula import WcnfFormula, cost, model_literals, relax
from .lookahead import RESPLIT_CUTOFF, ROOT_CUTOFF, GuidingPath, PathGenerator
from .sequential import HardUnsat, Optimum, linear_search, msu3
from .transport import Message

WHOLE_FORMULA_TASK = -1
# A generate call stops once its emitted plus open paths reach this many per
# path worker; `_resplit` generates more on demand.
PATHS_PER_WORKER = 4


@dataclass
class Verdict:
    status: str  # "optimum" | "unsatisfiable" | "unknown"
    cost: int | None = None
    model: dict[int, bool] | None = None


def initial_upper_bound(f: WcnfFormula, seed: int = 0):
    """SAT call on the hard clauses alone: (cost, model), or None when UNSAT."""
    engine = Engine(f.hard, num_vars=f.num_vars, seed=seed)
    result = engine.solve()
    if isinstance(result, Unsat):
        return None
    return cost(f, result.model), result.model


# --------------------------------------------------------------------- master


class MasterBase:
    def __init__(self, f: WcnfFormula, worker_ids, send, seed: int = 0):
        self.f = f
        self.worker_ids = list(worker_ids)  # roster order decides roles
        self.send = send  # callable(worker_id, Message)
        self.seed = seed
        self.registered: set[str] = set()
        self.roles: dict[str, str] = {}
        self._begun = False
        self.finished = False
        self.verdict: Verdict | None = None
        self.window = BoundSet(lam=0, mu=f.num_soft + 1)
        self.best_model: dict[int, bool] | None = None
        self.improvements: list[int] = []
        self.on_improve = None  # optional callable(cost, model)
        self.audit: list[tuple[str, int, int]] = []  # (event, λ, μ) after each move

    @property
    def best_cost(self) -> int | None:
        return self.window.mu if self.best_model is not None else None

    def _improve(self, found: int, model: dict[int, bool]) -> None:
        if not self.window.apply_sat(found):
            return
        self.best_model = model
        self.improvements.append(found)
        if self.on_improve is not None:
            self.on_improve(found, model)
        self._moved("sat")

    def _raise_lower(self, lb: int) -> None:
        if self.window.raise_lower(lb):
            self._moved("lower_bound")

    def _moved(self, event: str) -> None:
        self.audit.append((event, self.window.lam, self.window.mu))
        if self.window.closed and not self.finished:
            self._finish()

    def _finish(self) -> None:
        """The only verdict a master reaches: λ has met μ."""
        self.finished = True
        status = "optimum" if self.best_model is not None else "unsatisfiable"
        self.verdict = Verdict(status=status, cost=self.best_cost, model=self.best_model)
        if self.best_model is None:
            payload = {"verdict": status, "cost": -1, "model": []}
        else:
            payload = {"verdict": status, "cost": self.window.mu, "model": model_literals(self.f, self.best_model)}
        msg = Message("terminate", "master", payload)
        for wid in self.worker_ids:
            if wid in self.registered:
                self.send(wid, msg)

    def _checked_model(self, payload) -> tuple[int, dict[int, bool]] | None:
        """Validate a reported model; None means the report was bogus."""
        lits = payload["model"]
        model = {abs(l): l > 0 for l in lits}
        try:
            found = cost(self.f, model)
        except ValueError:
            return None
        if found != payload["cost"]:
            return None
        return found, model

    def on_message(self, src: str, msg: Message) -> None:
        if self.finished:
            return
        p = msg.payload
        if msg.kind == "hello":
            self.registered.add(src)
            self._begin_when_ready()
        elif msg.kind == "report_sat":
            checked = self._checked_model(p)
            if checked is not None:
                self._improve(*checked)
        elif msg.kind == "report_lower_bound":
            self._raise_lower(p["lb"])
            self._schedule()
        elif msg.kind == "report_done":
            self._raise_lower(self._conclude(src, p["task"], p["lb"]))
            self._schedule()
        # abort/terminate never arrive at the master

    def _begin_when_ready(self) -> None:
        if not self._begun and self.worker_ids and self.registered >= set(self.worker_ids):
            self._begun = True
            # One SAT call on the hard clauses: the first model and μ, or the
            # proof that there is none, before any task is sent.
            start = initial_upper_bound(self.f, seed=self.seed)
            if start is None:
                self._raise_lower(self.f.num_soft + 1)
            else:
                self._improve(*start)
            if not self.finished:
                self._begin()

    def on_worker_lost(self, wid: str) -> None:
        """Drop a worker whose link broke.  Before the run begins the roster
        only shrinks; afterwards its live task goes back to the pool."""
        if self.finished or wid not in self.worker_ids:
            return
        self.worker_ids.remove(wid)
        self.registered.discard(wid)
        if self._begun:
            self._reclaim(wid)
        else:
            self._begin_when_ready()

    def _begin(self) -> None:
        """Start the strategy's own search, once a model is held and μ is its cost."""
        raise NotImplementedError

    def _conclude(self, src: str, task: int, lb: int) -> int:
        """Close `src`'s task; returns the lower bound it may add (0: none)."""
        raise NotImplementedError

    def _schedule(self) -> None:
        raise NotImplementedError

    def _reclaim(self, wid: str) -> None:
        raise NotImplementedError


class SssMaster(MasterBase):
    """Search-space splitting: one core-guided worker, the rest probe bounds."""

    def __init__(self, f, worker_ids, send, seed: int = 0):
        super().__init__(f, worker_ids, send, seed)
        self.current_task: dict[str, int | None] = {}
        self.linear_workers: list[str] = []

    def _assign_roles(self) -> None:
        self.roles[self.worker_ids[0]] = "sss_msu3"
        self.linear_workers = self.worker_ids[1:]
        for wid in self.linear_workers:
            self.roles[wid] = "sss_linear"
        for wid in self.worker_ids:
            self.send(wid, Message("hello", "master", {"role": self.roles[wid]}))

    def _begin(self) -> None:
        self._assign_roles()
        window = self.window
        window.bounds = initial_bounds(window.mu, max(1, len(self.linear_workers))).bounds
        for wid, bound in zip(self.linear_workers, window.bounds[1:]):
            self._assign_bound(wid, bound)
        for wid in self.linear_workers:
            if self.current_task.get(wid) is None:
                self._reassign(wid)

    def _assign_bound(self, wid: str, bound: int) -> None:
        self.window.owner[bound] = wid
        self.current_task[wid] = bound
        self.send(wid, Message("assign_bound", "master", {"bound": bound}))

    def _reassign(self, wid: str) -> None:
        """Give `wid` a fresh midpoint, or any unowned bound, or let it idle."""
        self.current_task[wid] = None
        window = self.window
        bound = window.next_tentative()
        if bound is None:
            candidates = [b for b in window.unowned() if window.lam <= b <= window.mu - 1]
            bound = candidates[0] if candidates else None
        if bound is not None:
            self._assign_bound(wid, bound)

    def _schedule(self) -> None:
        """Abort and refit every linear worker whose bound left the window."""
        if self.finished:
            return
        window = self.window
        for wid in self.linear_workers:
            task = self.current_task.get(wid)
            if task is not None and (task not in window.bounds or window.owner.get(task) != wid):
                self.send(wid, Message("abort", "master", {}))
                self._reassign(wid)
            elif task is None:
                self._reassign(wid)

    def _conclude(self, src: str, task: int, lb: int) -> int:
        if self.current_task.get(src) != task:
            return 0  # aborted: the bound left the window, so it proves no more
        self.current_task[src] = None
        self.window.owner.pop(task, None)
        return min(lb, task + 1)

    def _reclaim(self, wid: str) -> None:
        task = self.current_task.pop(wid, None)
        if task is not None:
            self.window.owner.pop(task, None)
        if wid in self.linear_workers:
            self.linear_workers.remove(wid)
        self._schedule()


class GpMaster(MasterBase):
    """Guiding paths: a queue of lookahead cubes plus one full linear search."""

    def __init__(self, f, worker_ids, send, seed: int = 0):
        super().__init__(f, worker_ids, send, seed)
        self.generator: PathGenerator | None = None
        self.pending: list[GuidingPath] = []
        self.in_flight: dict[int, tuple[GuidingPath, int, int, str]] = {}  # task -> (path, mu_sent, seq, wid)
        self.resplit_done: set[int] = set()
        self.assign_seq = 0
        self.terminated_early = False
        self.pending_at_termination = 0
        self.path_workers: list[str] = []
        self.idle: list[str] = []
        self.gen_trace: list[tuple[str, float]] = []
        self.generated_paths: list[GuidingPath] = []

    def _assign_roles(self) -> None:
        self.roles[self.worker_ids[0]] = "gp_linear"
        self.path_workers = self.worker_ids[1:]
        for wid in self.path_workers:
            self.roles[wid] = "gp_solver"
        for wid in self.worker_ids:
            self.send(wid, Message("hello", "master", {"role": self.roles[wid]}))

    def _begin(self) -> None:
        # The full linear search starts first so it can improve μ while the
        # master is busy generating the root paths.
        self._assign_roles()
        self._dispatch_to(self.worker_ids[0], GuidingPath(decisions=(), gen_index=WHOLE_FORMULA_TASK))
        self.generator = PathGenerator(self.f.hard, self.f.soft, num_vars=self.f.num_vars, seed=self.seed)
        result = self.generator.generate(theta0=ROOT_CUTOFF, max_paths=self._path_budget())
        self.gen_trace = result.trace
        if result.root_conflict:
            self._raise_lower(self.f.num_soft + 1)
            return
        if result.paths:
            self.pending = list(result.paths)
        else:
            whole = GuidingPath(decisions=(), gen_index=self.generator.next_index)
            self.generator.next_index += 1
            self.pending = [whole]
        self.generated_paths.extend(self.pending)
        self._sort_pending()
        self.idle = list(self.path_workers)
        self._schedule()

    def _path_budget(self) -> int:
        return PATHS_PER_WORKER * len(self.path_workers)

    def _sort_pending(self) -> None:
        self.pending.sort(key=lambda p: (p.depth, p.gen_index))

    def _paths_open(self) -> bool:
        return bool(self.pending) or any(task != WHOLE_FORMULA_TASK for task in self.in_flight)

    def _dispatch_to(self, wid: str, path: GuidingPath) -> None:
        mu = self.window.mu
        self.in_flight[path.gen_index] = (path, mu, self.assign_seq, wid)
        self.assign_seq += 1
        self.send(wid, Message("assign_path", "master", {"task": path.gen_index, "path": list(path.decisions), "mu": mu}))

    def _schedule(self) -> None:
        if self.finished:
            return
        while self.idle and self.pending:
            wid = self.idle.pop(0)
            self._dispatch_to(wid, self.pending.pop(0))
        if self.idle and not self.pending and self.in_flight:
            self._resplit()
        if not self._paths_open():
            # The paths partition the search space and none holds a model
            # cheaper than μ.
            self._raise_lower(self.window.mu)

    def _resplit(self) -> None:
        """Split the longest-running in-flight path into sub-paths."""
        candidates = [
            (seq, task) for task, (_p, _mu, seq, _w) in self.in_flight.items()
            if task not in self.resplit_done and task != WHOLE_FORMULA_TASK
        ]
        if not candidates:
            return
        _seq, task = min(candidates)
        self.resplit_done.add(task)
        parent = self.in_flight[task][0]
        result = self.generator.generate(
            d0=parent.decisions, theta0=RESPLIT_CUTOFF, parent_index=task, max_paths=self._path_budget()
        )
        self.gen_trace.extend(result.trace)
        if result.paths:
            self.pending.extend(result.paths)
            self.generated_paths.extend(result.paths)
            self._sort_pending()
            self._schedule()

    def _conclude(self, src: str, task: int, lb: int) -> int:
        if src in self.path_workers and src not in self.idle:
            self.idle.append(src)
        entry = self.in_flight.get(task)
        if entry is None or entry[3] != src:
            return 0
        del self.in_flight[task]
        # Sub-paths of a concluded parent are redundant.
        self.pending = [p for p in self.pending if p.parent_index != task]
        return min(lb, entry[1])

    def _finish(self) -> None:
        self.pending_at_termination = len(self.pending)
        self.terminated_early = self._paths_open()
        super()._finish()

    def _reclaim(self, wid: str) -> None:
        for task, (path, _mu, _seq, owner) in list(self.in_flight.items()):
            if owner == wid:
                del self.in_flight[task]
                if task != WHOLE_FORMULA_TASK:
                    self.pending.append(path)
        self._sort_pending()
        if wid in self.path_workers:
            self.path_workers.remove(wid)
        if wid in self.idle:
            self.idle.remove(wid)
        self._schedule()


# --------------------------------------------------------------------- worker


class WorkerNode:
    """Role-agnostic worker: the master's hello decides what it computes."""

    def __init__(self, wid: str, f: WcnfFormula, send, seed: int = 0, deadline=None, clock=None):
        self.wid = wid
        self.f = f
        self.send = send  # callable(Message)
        self.seed = seed
        # Every SAT call of a task checks these and raises TimeoutError past
        # the deadline.
        self.deadline = deadline
        self.clock = clock
        self.role: str | None = None
        self.rf = relax(f)
        self.done = False
        self._totalizer: Totalizer | None = None  # built on first use, kept for the run

    def hello(self) -> None:
        self.send(Message("hello", self.wid, {"role": "worker"}))

    def on_message(self, msg: Message) -> None:
        if msg.kind == "hello":
            self.role = msg.payload["role"]
            if self.role == "sss_msu3":
                self._run_msu3()
        elif msg.kind == "assign_bound":
            self._test_bound(msg.payload["bound"])
        elif msg.kind == "assign_path":
            self._solve_path(msg.payload["task"], msg.payload["path"], msg.payload["mu"])
        elif msg.kind == "abort":
            pass  # tasks are atomic here; stale results are the master's problem
        elif msg.kind == "terminate":
            self.done = True

    def _report_sat(self, found: int, model: dict[int, bool]) -> None:
        self.send(Message("report_sat", self.wid, {"cost": found, "model": model_literals(self.f, model)}))

    def _report_lower_bound(self, lb: int) -> None:
        self.send(Message("report_lower_bound", self.wid, {"lb": lb}))

    def _report_done(self, task: int, lb: int) -> None:
        self.send(Message("report_done", self.wid, {"task": task, "lb": lb}))

    # ------------------------------------------------------------ sss roles

    def _run_msu3(self) -> None:
        outcome = msu3(
            self.f, on_lower_bound=self._report_lower_bound, seed=self.seed, deadline=self.deadline, clock=self.clock,
        )
        if isinstance(outcome, Optimum):
            self._report_sat(outcome.cost, outcome.model)
            self._report_lower_bound(outcome.cost)
        else:
            self._report_lower_bound(self.f.num_soft + 1)

    def _relaxed_totalizer(self) -> Totalizer:
        """The worker's one engine over the relaxed formula and its totalizer
        over every relaxation variable, shared by all its bound probes and
        path tasks, so learned clauses and totalizer outputs carry over."""
        if self._totalizer is None:
            engine = Engine(self.rf.clauses, num_vars=self.rf.num_vars, seed=self.seed)
            self._totalizer = Totalizer(engine, self.rf.relax_vars)
        return self._totalizer

    def _test_bound(self, bound: int) -> None:
        """One SAT call at Σ r <= bound: a model, or the proof λ > bound."""
        totalizer = self._relaxed_totalizer()
        result = totalizer.engine.solve(
            totalizer.at_most(bound), deadline=self.deadline, clock=self.clock, model_vars=self.f.num_vars,
        )
        if isinstance(result, Sat):
            self._report_sat(cost(self.f, result.model), result.model)
            self._report_done(bound, 0)
        else:
            self._report_done(bound, bound + 1)

    # ------------------------------------------------------------- gp roles

    def _solve_path(self, task: int, path, mu: int) -> None:
        """Linear search under the path below μ; every model is reported."""
        outcome = linear_search(
            self._relaxed_totalizer(), self.f, min(mu - 1, self.f.num_soft), path=path,
            on_improve=self._report_sat, deadline=self.deadline, clock=self.clock,
        )
        # A proof holds globally only when it used no path literal: an empty
        # path, a final core that avoided the path, or hard clauses that are
        # unsatisfiable by themselves.
        if isinstance(outcome, Optimum):
            lb = 0 if path else outcome.cost
        elif isinstance(outcome, HardUnsat) or outcome.proof_independent:
            lb = mu
        else:
            lb = 0
        self._report_done(task, lb)


# ----------------------------------------------------------------- simulation


@dataclass
class SimOutcome:
    verdict: Verdict
    improvements: list[int]
    audit: list
    trace: list[bytes]
    master: MasterBase


def run_sim(
    f: WcnfFormula,
    algo: str,
    num_workers: int,
    seed: int = 0,
    on_improve=None,
    deadline=None,
    clock=None,
    max_deliveries: int = 2_000_000,
) -> SimOutcome:
    """Run master and workers in one process over the deterministic bus.

    Past `deadline` (read from `clock`) the run stops with an "unknown"
    verdict and the best model so far: the loop checks between deliveries and
    every worker SAT call checks on entry and at restarts.  Reports already
    on their way to the master are delivered before the run stops.
    """
    from .transport import SimBus

    if num_workers < 1:
        raise ValueError("need at least one worker")
    worker_ids = [f"w{i}" for i in range(1, num_workers + 1)]
    bus = SimBus(seed, ["master"] + worker_ids)
    master_cls = {"sss": SssMaster, "gp": GpMaster}[algo]
    master = master_cls(f, worker_ids, send=lambda dst, m: bus.send("master", dst, m), seed=seed)
    master.on_improve = on_improve
    workers = {
        wid: WorkerNode(
            wid, f, send=lambda m, _w=wid: bus.send(_w, "master", m), seed=seed * 7919 + i,
            deadline=deadline, clock=clock,
        )
        for i, wid in enumerate(worker_ids, start=1)
    }
    for wid in worker_ids:
        workers[wid].hello()
    deliveries = 0
    stopped = False
    while not master.finished and bus.pending():
        if deadline is not None and clock is not None and clock() > deadline:
            stopped = True
            break
        deliveries += 1
        if deliveries > max_deliveries:
            raise RuntimeError("simulation did not converge")
        src, dst, msg = bus.deliver_next()
        if dst == "master":
            master.on_message(src, msg)
        else:
            try:
                workers[dst].on_message(msg)
            except TimeoutError:
                stopped = True
                break
    if stopped:
        # Reports sent before the stop still count: master handling is
        # monotone and checks every model, so hand it its reports (a hello
        # would start new work), then stop.
        for src, msg in bus.drain("master"):
            if msg.kind != "hello":
                master.on_message(src, msg)
    verdict = master.verdict or Verdict(status="unknown", cost=master.best_cost, model=master.best_model)
    return SimOutcome(
        verdict=verdict,
        improvements=list(master.improvements),
        audit=list(master.audit),
        trace=list(bus.trace),
        master=master,
    )
