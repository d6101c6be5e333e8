"""Master and worker logic for both distributed strategies.

The master is a single event loop: every piece of shared state lives in it and
mutates only when a decoded message is handled.  Workers own their engines and
never talk to each other; all traffic goes through the master.

Stale results are harmless by construction: models only ever lower the upper
bound, UNSAT proofs only ever raise the lower bound, so a report about a task
the master already reassigned still applies monotonically.

A worker concludes every task with either `report_unsat` (bound workers) or
`report_optimum` (everything else); conclusions echo the task so the master
can tell a live conclusion from a stale one.  The whole-formula tasks of the
core-guided and full-linear-search workers use task id -1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import BoundSet, initial_bounds
from .cardinality import Totalizer
from .engine import Engine, Sat, Unsat
from .formula import WcnfFormula, cost, model_literals, relax, restrict_model
from .lookahead import RESPLIT_CUTOFF, ROOT_CUTOFF, GuidingPath, PathGenerator
from .sequential import NoImprovement, Optimum, linear_su, msu3
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
    model = restrict_model(f, result.model)
    return cost(f, model), model


def gp_worker(path, mu: int, rf, on_improve=None, seed: int = 0, deadline=None, clock=None):
    """Solve one guiding path: linear search under the path with bound μ-1."""
    if mu < 1:
        raise ValueError("gp_worker needs mu >= 1")
    return linear_su(
        rf, ub_init=min(mu - 1, len(rf.relax_vars)), path=path, on_improve=on_improve, seed=seed,
        deadline=deadline, clock=clock,
    )


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
        self.best_cost: int | None = None
        self.best_model: dict[int, bool] | None = None
        self.improvements: list[int] = []
        self.on_improve = None  # optional callable(cost, model)
        self.audit: list[tuple[str, int, int]] = []

    def _improve(self, found: int, model: dict[int, bool]) -> bool:
        if self.best_cost is not None and found >= self.best_cost:
            return False
        self.best_cost = found
        self.best_model = model
        self.improvements.append(found)
        if self.on_improve is not None:
            self.on_improve(found, model)
        return True

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

    def _broadcast_terminate(self, verdict: Verdict) -> None:
        model = model_literals(self.f, verdict.model) if verdict.model else []
        msg = Message(
            "terminate",
            "master",
            {"verdict": verdict.status, "cost": -1 if verdict.cost is None else verdict.cost, "model": model},
        )
        for wid in self.worker_ids:
            if wid in self.registered:
                self.send(wid, msg)

    def _finish(self, status: str) -> None:
        if self.finished:
            return
        self.verdict = Verdict(status=status, cost=self.best_cost, model=self.best_model)
        self.finished = True
        self._broadcast_terminate(self.verdict)

    def on_message(self, src: str, msg: Message) -> None:
        if self.finished:
            return
        if msg.kind == "hello":
            self.registered.add(src)
            self._begin_when_ready()
            return
        self._handle(src, msg)

    def _begin_when_ready(self) -> None:
        if not self._begun and self.worker_ids and self.registered >= set(self.worker_ids):
            self._begun = True
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

    def _reclaim(self, wid: str) -> None:
        raise NotImplementedError

    def _begin(self) -> None:
        raise NotImplementedError

    def _handle(self, src: str, msg: Message) -> None:
        raise NotImplementedError


class SssMaster(MasterBase):
    """Search-space splitting: one core-guided worker, the rest test bounds."""

    def __init__(self, f, worker_ids, send, seed: int = 0):
        super().__init__(f, worker_ids, send, seed)
        self.bound_set: BoundSet | None = None
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
        start = initial_upper_bound(self.f, seed=self.seed)
        if start is None:
            self._finish("unsatisfiable")
            return
        mu, model = start
        self._improve(mu, model)
        if mu == 0:
            self._finish("optimum")
            return
        self._assign_roles()
        self.bound_set = initial_bounds(mu, max(1, len(self.linear_workers)))
        self._audit("init")
        for wid, bound in zip(self.linear_workers, self.bound_set.bounds[1:]):
            self._assign_bound(wid, bound)
        for wid in self.linear_workers:
            if self.current_task.get(wid) is None:
                self._reassign(wid)

    def _audit(self, event: str) -> None:
        self.audit.append((event, self.bound_set.lam, self.bound_set.mu))

    def _assign_bound(self, wid: str, bound: int) -> None:
        self.bound_set.owner[bound] = wid
        self.current_task[wid] = bound
        self.send(wid, Message("assign_bound", "master", {"bound": bound}))

    def _reassign(self, wid: str) -> None:
        """Give `wid` a fresh midpoint, or any unowned bound, or let it idle."""
        self.current_task[wid] = None
        if self.finished:
            return
        bound = self.bound_set.next_tentative()
        if bound is None:
            candidates = [b for b in self.bound_set.unowned() if self.bound_set.lam <= b <= self.bound_set.mu - 1]
            bound = candidates[0] if candidates else None
        if bound is not None:
            self._assign_bound(wid, bound)

    def _rebalance(self) -> None:
        """Abort and refit every linear worker whose bound left the window."""
        if self.finished:
            return
        for wid in self.linear_workers:
            task = self.current_task.get(wid)
            if task is not None and (task not in self.bound_set.bounds or self.bound_set.owner.get(task) != wid):
                self.send(wid, Message("abort", "master", {}))
                self._reassign(wid)
            elif task is None:
                self._reassign(wid)

    def _after_update(self, event: str) -> None:
        self._audit(event)
        if self.bound_set.closed:
            self._finish("optimum")
            return
        self._rebalance()

    def _handle(self, src: str, msg: Message) -> None:
        bs = self.bound_set
        if msg.kind == "report_unsat":
            bound = msg.payload["bound"]
            if self.current_task.get(src) == bound:
                self.current_task[src] = None
            if bs.apply_unsat(bound):
                self._after_update("unsat")
            else:
                self._rebalance()
        elif msg.kind == "report_optimum":
            task = msg.payload["task"]
            if msg.payload["hard_unsat"]:
                # Unreachable when the initial SAT call succeeded; trust it
                # only as a stale no-op.
                return
            checked = self._checked_model(msg.payload) if msg.payload["cost"] >= 0 else None
            if self.current_task.get(src) == task:
                self.current_task[src] = None
                if bs.owner.get(task) == src:
                    del bs.owner[task]  # bogus reports return the bound to the pool
            if checked is None:
                self._rebalance()
                return
            found, model = checked
            improved = self._improve(found, model)
            updated = bs.apply_sat(found)
            if task == WHOLE_FORMULA_TASK:
                # The core-guided worker finished: its cost is the optimum.
                bs.raise_lower(found)
            if updated or improved:
                self._after_update("sat")
            else:
                self._rebalance()
        elif msg.kind == "report_lower_bound":
            if bs.raise_lower(msg.payload["lb"]):
                self._after_update("lower_bound")
        # abort/terminate never arrive at the master

    def _reclaim(self, wid: str) -> None:
        task = self.current_task.pop(wid, None)
        if task is not None:
            self.bound_set.owner.pop(task, None)
        if wid in self.linear_workers:
            self.linear_workers.remove(wid)
        self._rebalance()


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

    @property
    def dispatch_mu(self) -> int:
        return self.best_cost if self.best_cost is not None else self.f.num_soft + 1

    def _begin(self) -> None:
        # The full linear search starts first so it can improve μ while the
        # master is busy generating the root paths.
        self._assign_roles()
        self._dispatch_to(self.worker_ids[0], GuidingPath(decisions=(), gen_index=WHOLE_FORMULA_TASK))
        self.generator = PathGenerator(self.f.hard, self.f.soft, num_vars=self.f.num_vars, seed=self.seed)
        result = self.generator.generate(theta0=ROOT_CUTOFF, max_paths=self._path_budget())
        self.gen_trace = result.trace
        if result.root_conflict:
            self._finish("unsatisfiable")
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
        self._dispatch()

    def _path_budget(self) -> int:
        return PATHS_PER_WORKER * len(self.path_workers)

    def _sort_pending(self) -> None:
        self.pending.sort(key=lambda p: (p.depth, p.gen_index))

    def _dispatch_to(self, wid: str, path: GuidingPath) -> None:
        mu = self.dispatch_mu
        self.in_flight[path.gen_index] = (path, mu, self.assign_seq, wid)
        self.assign_seq += 1
        self.send(wid, Message("assign_path", "master", {"task": path.gen_index, "path": list(path.decisions), "mu": mu}))

    def _dispatch(self) -> None:
        if self.finished:
            return
        while self.idle and self.pending:
            wid = self.idle.pop(0)
            self._dispatch_to(wid, self.pending.pop(0))
        if self.idle and not self.pending and self.in_flight:
            self._resplit()
        if not self.pending and not self.in_flight:
            self._finish("optimum" if self.best_model is not None else "unsatisfiable")

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
            self._dispatch()

    def _conclude(self, task: int, src: str) -> None:
        entry = self.in_flight.pop(task, None)
        if entry is not None:
            # Sub-paths of a resolved parent are redundant.
            self.pending = [p for p in self.pending if p.parent_index != task]
        if src in self.path_workers and src not in self.idle:
            self.idle.append(src)

    def _handle(self, src: str, msg: Message) -> None:
        if msg.kind == "report_sat":
            checked = self._checked_model(msg.payload)
            if checked is not None:
                found, model = checked
                if self._improve(found, model):
                    self.audit.append(("sat", 0, found))
                if found == 0:
                    self._finish("optimum")
            return
        if msg.kind != "report_optimum":
            return
        task = msg.payload["task"]
        entry = self.in_flight.get(task)
        mu_sent = entry[1] if entry is not None else None
        if msg.payload["hard_unsat"]:
            # Only produced by an unrestricted task (no path, no bound), so
            # the hard clauses themselves are unsatisfiable.
            self._conclude(task, src)
            self._finish("unsatisfiable")
            return
        found = None
        if msg.payload["cost"] >= 0:
            checked = self._checked_model(msg.payload)
            if checked is not None:
                found, model = checked
                if self._improve(found, model):
                    self.audit.append(("sat", 0, found))
        self._conclude(task, src)
        if msg.payload["proof_independent"]:
            proven = found if found is not None else mu_sent
            if proven is not None and self.best_cost is not None and proven >= self.best_cost:
                self.pending_at_termination = len(self.pending)
                self.terminated_early = bool(self.pending or self.in_flight)
                self._finish("optimum")
                return
            if proven is not None and self.best_cost is None:
                # proof-independent UNSAT with no model anywhere: nothing
                # satisfies the hard clauses under any cost, i.e. UNSAT.
                self._finish("unsatisfiable")
                return
        if self.best_cost == 0:
            self._finish("optimum")
            return
        self._dispatch()

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
        self._dispatch()


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
        self._totalizer = None  # persistent engine and totalizer for bound testing

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

    # ------------------------------------------------------------ sss roles

    def _run_msu3(self) -> None:
        def report(lam):
            self.send(Message("report_lower_bound", self.wid, {"lb": lam}))

        outcome = msu3(self.f, on_lower_bound=report, seed=self.seed, deadline=self.deadline, clock=self.clock)
        if isinstance(outcome, Optimum):
            self.send(Message(
                "report_optimum",
                self.wid,
                {
                    "task": WHOLE_FORMULA_TASK,
                    "cost": outcome.cost,
                    "model": model_literals(self.f, outcome.model),
                    "proof_independent": True,
                    "hard_unsat": False,
                },
            ))
        else:
            self.send(Message(
                "report_optimum",
                self.wid,
                {"task": WHOLE_FORMULA_TASK, "cost": -1, "model": [], "proof_independent": False, "hard_unsat": True},
            ))

    def _test_bound(self, bound: int) -> None:
        """One SAT call at Σ r <= bound, reporting either direction."""
        if self._totalizer is None:
            engine = Engine(self.rf.clauses, num_vars=self.rf.num_vars, seed=self.seed)
            self._totalizer = Totalizer(engine, self.rf.relax_vars)
        totalizer = self._totalizer
        result = totalizer.engine.solve(totalizer.at_most(bound), deadline=self.deadline, clock=self.clock)
        if isinstance(result, Sat):
            model = restrict_model(self.f, result.model)
            found = cost(self.f, model)
            self.send(Message(
                "report_optimum",
                self.wid,
                {
                    "task": bound,
                    "cost": found,
                    "model": model_literals(self.f, model),
                    "proof_independent": False,
                    "hard_unsat": False,
                },
            ))
        else:
            self.send(Message("report_unsat", self.wid, {"bound": bound}))

    # ------------------------------------------------------------- gp roles

    def _solve_path(self, task: int, path, mu: int) -> None:
        def improved(found, model):
            self.send(Message("report_sat", self.wid, {"cost": found, "model": model_literals(self.f, model)}))

        outcome = gp_worker(
            path, mu, self.rf, on_improve=improved, seed=self.seed * 1000003 + (task + 2),
            deadline=self.deadline, clock=self.clock,
        )
        if isinstance(outcome, Optimum):
            payload = {
                "task": task,
                "cost": outcome.cost,
                "model": model_literals(self.f, outcome.model),
                "proof_independent": not path,  # empty path: any core avoids it
                "hard_unsat": False,
            }
        elif isinstance(outcome, NoImprovement):
            payload = {
                "task": task,
                "cost": -1,
                "model": [],
                "proof_independent": outcome.proof_independent,
                "hard_unsat": False,
            }
        else:
            payload = {"task": task, "cost": -1, "model": [], "proof_independent": False, "hard_unsat": True}
        self.send(Message("report_optimum", self.wid, payload))


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
