"""Master and worker logic for both distributed strategies.

The master is a single event loop: every piece of shared state lives in it and
mutates only when a decoded message is handled.  Workers own their engines and
never talk to each other; all traffic goes through the master.

Both masters narrow one cost window, the `BoundSet` in `MasterBase`: μ is the
cost of the best model held (`num_soft + 1` before the first one) and λ a
proven lower bound.  Workers report two kinds of fact, models and proofs:

- `report_sat{cost, model}`: a model, sent as soon as it is found; it lowers μ.
- `report_done{task, lb}`: exactly one per `assign_path`; `lb` is the
  global lower bound the task proved, 0 if none.  It raises λ, and
  it is the only message that does.

Which worker holds what is one ledger, `MasterBase.tasks`: each busy worker's
one live `Task`, in assignment order.  `_assign` enters a task, `_conclude`
closes it, capping its `lb` at the task's cap (bound+1 for a bound probe, the
μ sent for a path), and `on_worker_lost` hands a lost worker's task to the
strategy's `_requeue`.  A stale `report_done`, naming a task the master does
not hold for its sender, adds nothing and leaves the sender's live task in
place.  So every proof a worker sends is capped and stale-checked.

The master searches once, in `start`, which `run_sim` and the socket
master call before any hello: one SAT call on the hard clauses
(`initial_upper_bound`, bounded by the run's deadline), which gives the
first model, and so the first μ, or the proof that there is none; then,
with a model held and the run open, the strategy's split: sss's initial
bounds, or gp's root frontier, sized for `size` workers.  After that the
master only hands out tasks.  It knows one list of workers, `workers`, in
the order they said hello.  The run begins at the first hello: that worker,
the lead, gets the whole-formula task -1 (`assign_path` with an empty path
and the μ held).  Every later one is a helper and gets its first task at
its own hello: sss an unheld bound of the initial split, gp a path of the
root frontier.  A worker that connects and never says hello holds nothing
up.
A finished master answers a hello with `terminate`.  The master raises λ
itself on its own proofs: to `num_soft + 1` when the hard clauses are
unsatisfiable, and to μ once every guiding path has concluded, because the
paths partition the search space.  The run ends in one place, as soon as
λ ≥ μ: "optimum" when a model is held, "unsatisfiable" when none is.

Models only lower μ and proofs only raise λ, so a report that arrives after
the master moved on still applies monotonically.

Every task is one kind of cell, a cube and a stop: the worker runs `oll`
under the cube, on a state of its own, until λ reaches the stop, so nothing
carries from one cell to the next.  A guiding path is the cell (path, μ sent),
task -1 the cell (∅, μ sent), and an sss bound probe at b the cell (∅, b + 1):
it reports the optimum c and proves λ = c when c ≤ b, and proves λ = b + 1
otherwise.
"""

from __future__ import annotations

from collections import namedtuple

from .bounds import BoundSet, initial_bounds
from .engine import Engine, Unsat
from .formula import WcnfFormula, cost, model_literals
from .sequential import Optimum, oll
from .transport import Message

WHOLE_FORMULA_TASK = -1  # the lead's task: `oll` on the whole formula
# gp's root frontier: generation stops once its emitted plus open paths
# reach this many per path worker.
PATHS_PER_WORKER = 4


# status: "optimum" | "unsatisfiable" | "unknown"; the best model held and its cost, if any
Verdict = namedtuple("Verdict", "status cost model", defaults=(None, None))


def initial_upper_bound(f: WcnfFormula, seed: int = 0, deadline=None, clock=None):
    """SAT call on the hard clauses alone: (cost, model), or None when UNSAT.
    Raises TimeoutError once `clock()` is past `deadline`."""
    engine = Engine(f.hard, num_vars=f.num_vars, seed=seed)
    result = engine.solve(deadline=deadline, clock=clock)
    if isinstance(result, Unsat):
        return None
    return cost(f, result.model), result.model


# --------------------------------------------------------------------- master


class Task(namedtuple("Task", "id cap path", defaults=((),))):
    """A worker's one live task, a cell: a `GuidingPath` (`id` its generation
    index), or the empty cube for the whole formula (`id` -1) and for a bound
    probe (`id` the bound).  `cap` is the cell's stop and the most its
    `report_done` may prove: bound+1 for a probe, the μ sent for a path."""

    __slots__ = ()


class MasterBase:
    """The master's state is the workers in hello order, the `lead` among
    them, the task ledger and the cost window; the rest is read off those."""

    def __init__(self, f: WcnfFormula, send, size: int, seed: int = 0):
        self.f = f
        self.send = send  # callable(worker_id, Message)
        self.size = size  # the workers the run is sized for
        self.seed = seed
        self.workers: list[str] = []  # every worker that said hello and is not lost, in hello order
        self.lead: str | None = None  # the first to say hello, once the run has begun
        self.tasks: dict[str, Task] = {}  # worker -> its live task, in assignment order
        self.finished = False
        self.verdict: Verdict | None = None
        self.window = BoundSet(lam=0, mu=f.num_soft + 1)
        self.best_model: dict[int, bool] | None = None
        self.on_improve = None  # optional callable(cost, model)
        self.audit: list[tuple[str, int, int]] = []  # (event, λ, μ) after each move
        self._terminate_msg: Message | None = None  # the verdict, once finished

    @property
    def helpers(self) -> list[str]:
        return [wid for wid in self.workers if wid != self.lead]

    @property
    def best_cost(self) -> int | None:
        return self.window.mu if self.best_model is not None else None

    def _improve(self, found: int, model: dict[int, bool]) -> None:
        if not self.window.apply_sat(found):
            return
        self.best_model = model
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
        self._terminate_msg = Message("terminate", "master", payload)
        for wid in self.workers:
            self.send(wid, self._terminate_msg)

    def _checked_model(self, payload) -> tuple[int, dict[int, bool]] | None:
        """Validate a reported model; None means the report was bogus: not
        one literal for each variable of the formula (`cost` checks that each
        is there), a hard clause falsified, or a cost other than the stated."""
        lits = payload["model"]
        if len(lits) != self.f.num_vars:
            return None
        model = {abs(l): l > 0 for l in lits}
        try:
            found = cost(self.f, model)
        except ValueError:
            return None
        if found != payload["cost"]:
            return None
        return found, model

    def start(self, deadline=None, clock=None) -> None:
        """The master's only search, made once before any hello: one SAT
        call on the hard clauses, for the first model and μ or the proof that
        there is none, then, while the run is open, the strategy's split.
        Raises TimeoutError once `clock()` is past `deadline`."""
        found = initial_upper_bound(self.f, seed=self.seed, deadline=deadline, clock=clock)
        if found is None:
            self._raise_lower(self.f.num_soft + 1)
        else:
            self._improve(*found)
        if not self.finished:
            self._begin()

    def on_message(self, src: str, msg: Message) -> None:
        if msg.kind == "hello":
            if src not in self.workers:
                self.workers.append(src)
                self._welcome(src)
            return
        if self.finished:
            return
        p = msg.payload
        if msg.kind == "report_sat":
            checked = self._checked_model(p)
            if checked is not None:
                self._improve(*checked)
        elif msg.kind == "report_done":
            self._raise_lower(self._conclude(src, p["task"], p["lb"]))
            self._schedule()

    def _welcome(self, wid: str) -> None:
        """`wid` said hello: the first runs `oll` on the whole formula, each
        later one helps.  A finished master answers with its verdict."""
        if self.finished:
            self.send(wid, self._terminate_msg)
            return
        if self.lead is None:
            self.lead = wid
            self._assign(wid, Task(WHOLE_FORMULA_TASK, self.window.mu))
        else:
            self._first_task(wid)
        self._schedule()

    def _assign(self, wid: str, task: Task) -> None:
        """Hand `wid` its next task; it must hold none."""
        self.tasks[wid] = task
        decisions = task.path.decisions if task.path else ()
        self.send(wid, Message("assign_path", "master", {"task": task.id, "path": list(decisions), "mu": task.cap}))

    def _conclude(self, src: str, task_id: int, lb: int) -> int:
        """Close `src`'s task; returns the lower bound it may add (0: none).

        A stale report, naming a task the master does not hold for `src`,
        adds nothing and leaves `src`'s live task in place.  A live one
        proves at most the task's cap."""
        task = self.tasks.get(src)
        if task is None or task.id != task_id:
            return 0
        del self.tasks[src]
        return min(lb, task.cap)

    def on_worker_lost(self, wid: str) -> None:
        """Drop a worker whose link broke; its live task goes back to the
        pool.  One that never said hello changes nothing."""
        if self.finished or wid not in self.workers:
            return
        self.workers.remove(wid)
        self._requeue(wid, self.tasks.pop(wid, None))
        self._schedule()

    def _begin(self) -> None:
        """Make the strategy's split, once a model is held and μ is its cost;
        every task comes after."""
        raise NotImplementedError

    def _first_task(self, wid: str) -> None:
        """Hand the new helper `wid` the task it would have got at the start;
        without one, `_schedule` finds it a task."""

    def _schedule(self) -> None:
        raise NotImplementedError

    def _requeue(self, wid: str, task: Task | None) -> None:
        """`wid` is lost, holding `task` (None: it held none)."""


class SssMaster(MasterBase):
    """Search-space splitting: the lead runs `oll`, the helpers probe bounds.
    A probe at b is the cell (∅, b + 1): `oll` on the whole formula, stopped
    once λ passes b."""

    def _begin(self) -> None:
        self.window.bounds = initial_bounds(self.window.mu, max(1, self.size - 1)).bounds

    def _first_task(self, wid: str) -> None:
        """The lowest bound above the window's lowest that no worker holds:
        at the start, the bounds of the split in order.  With none left,
        `_schedule` finds `wid` a task."""
        held = {task.id for task in self.tasks.values()}
        bound = next((b for b in self.window.bounds[1:] if b not in held), None)
        if bound is not None:
            self._assign(wid, Task(bound, bound + 1))

    def _reassign(self, wid: str) -> None:
        """Give `wid` a fresh midpoint, or any bound no worker holds, or let it idle."""
        self.tasks.pop(wid, None)
        window = self.window
        bound = window.next_tentative()
        if bound is None:
            held = {task.id for task in self.tasks.values()}
            bound = next((b for b in window.bounds if b not in held), None)
        if bound is not None:
            self._assign(wid, Task(bound, bound + 1))

    def _schedule(self) -> None:
        """Refit every helper that is idle or whose bound left the window."""
        if self.finished:
            return
        for wid in self.helpers:
            task = self.tasks.get(wid)
            if task is None or task.id not in self.window.bounds:
                self._reassign(wid)


class GpMaster(MasterBase):
    """Guiding paths: the lead runs `oll`, the helpers take lookahead cubes
    from a queue.  An idle helper is one that holds no task, taken in hello
    order.  Only this master imports `lookahead`."""

    def __init__(self, f, send, size: int, seed: int = 0):
        super().__init__(f, send, size, seed)
        self.pending = []  # guiding paths waiting for a worker
        self.terminated_early = False
        self.generated_paths = []  # the root frontier, final once `start` returns

    def _begin(self) -> None:
        # The hard clauses have a model, so the root cannot conflict and the
        # path that model agrees with is never pruned: at least one path
        # comes back.
        from .lookahead import ROOT_CUTOFF, PathGenerator
        generator = PathGenerator(self.f.hard, self.f.soft, num_vars=self.f.num_vars, seed=self.seed)
        self.generated_paths = generator.generate(theta0=ROOT_CUTOFF, max_paths=self._path_budget()).paths
        self.pending = list(self.generated_paths)
        self._sort_pending()

    def _path_budget(self) -> int:
        """Sized for the run's helpers, so late ones never shrink the partition."""
        return PATHS_PER_WORKER * (self.size - 1)

    def _sort_pending(self) -> None:
        self.pending.sort(key=lambda p: (p.depth, p.gen_index))

    def _paths_open(self) -> bool:
        return bool(self.pending) or any(task.id != WHOLE_FORMULA_TASK for task in self.tasks.values())

    def _schedule(self) -> None:
        if self.finished:
            return
        idle = [wid for wid in self.helpers if wid not in self.tasks]
        while idle and self.pending:
            path = self.pending.pop(0)
            self._assign(idle.pop(0), Task(path.gen_index, self.window.mu, path))
        if not self._paths_open():
            # The paths partition the search space and none holds a model
            # cheaper than μ.
            self._raise_lower(self.window.mu)

    def _requeue(self, wid: str, task: Task | None) -> None:
        if task is not None and task.id != WHOLE_FORMULA_TASK:
            self.pending.append(task.path)
            self._sort_pending()

    def _finish(self) -> None:
        self.terminated_early = self._paths_open()
        super()._finish()


# --------------------------------------------------------------------- worker


class WorkerNode:
    """A worker: it says hello, then runs each task the master assigns."""

    def __init__(self, wid: str, f: WcnfFormula, send, seed: int = 0, deadline=None, clock=None):
        self.wid = wid
        self.f = f
        self.send = send  # callable(Message)
        self.seed = seed
        # Every SAT call of a task checks these and raises TimeoutError past
        # the deadline.
        self.deadline = deadline
        self.clock = clock
        self.done = False

    def hello(self) -> None:
        self.send(Message("hello", self.wid))

    def on_message(self, msg: Message) -> None:
        if msg.kind == "assign_path":
            self._solve_path(msg.payload["task"], msg.payload["path"], msg.payload["mu"])
        elif msg.kind == "terminate":
            self.done = True

    def _report_sat(self, found: int, model: dict[int, bool]) -> None:
        self.send(Message("report_sat", self.wid, {"cost": found, "model": model_literals(self.f, model)}))

    def _report_done(self, task: int, lb: int) -> None:
        self.send(Message("report_done", self.wid, {"task": task, "lb": lb}))

    def _solve_path(self, task: int, path, mu: int) -> None:
        """`oll` under the path, on a fresh state, until its λ reaches μ; the
        model it finds is reported.  `report_done` carries the last λ that
        holds globally: μ, or the model's cost, when no core used a path
        literal, and less, down to 0, once one has.  No running λ goes out:
        each would be one more message ahead of the one that closes the
        task.  A bound probe at b is the empty path with μ = b + 1."""
        proven = [0]
        outcome = oll(self.f, path, stop=mu, on_lower_bound=proven.append, seed=self.seed,
                      deadline=self.deadline, clock=self.clock)
        if isinstance(outcome, Optimum):
            self._report_sat(outcome.cost, outcome.model)
        self._report_done(task, min(proven[-1], mu))


# ----------------------------------------------------------------- simulation


SimOutcome = namedtuple("SimOutcome", "verdict improvements audit trace master")

# A sim run that delivers more messages than this raises RuntimeError.
MAX_DELIVERIES = 2_000_000


def run_sim(
    f: WcnfFormula,
    algo: str,
    num_workers: int,
    seed: int = 0,
    on_improve=None,
    deadline=None,
    clock=None,
) -> SimOutcome:
    """Run master and workers in one process over the deterministic bus.

    The master starts before any hello.  Past `deadline` (read from `clock`)
    the run stops with an "unknown" verdict and the best model so far: the
    loop checks between deliveries and every SAT call, the master's first
    one included, checks on entry and at restarts.  Reports already on their
    way to the master are delivered before the run stops.
    """
    from .transport import SimBus

    if num_workers < 1:
        raise ValueError("need at least one worker")
    ids = [f"w{i}" for i in range(1, num_workers + 1)]
    bus = SimBus(seed, ["master"] + ids)
    master_cls = {"sss": SssMaster, "gp": GpMaster}[algo]
    master = master_cls(f, send=lambda dst, m: bus.send("master", dst, m), size=num_workers, seed=seed)
    master.on_improve = on_improve
    workers = {
        wid: WorkerNode(
            wid, f, send=lambda m, _w=wid: bus.send(_w, "master", m), seed=seed * 7919 + i,
            deadline=deadline, clock=clock,
        )
        for i, wid in enumerate(ids, start=1)
    }
    deliveries = 0
    try:
        master.start(deadline, clock)
        for wid in ids:
            workers[wid].hello()
        while not master.finished and bus.pending():
            if deadline is not None and clock is not None and clock() > deadline:
                raise TimeoutError("sim deadline exceeded")
            deliveries += 1
            if deliveries > MAX_DELIVERIES:
                raise RuntimeError("simulation did not converge")
            src, dst, msg = bus.deliver_next()
            if dst == "master":
                master.on_message(src, msg)
            else:
                workers[dst].on_message(msg)
    except TimeoutError:
        # Reports sent before the stop still count: master handling is
        # monotone and checks every model, so hand it its reports (a hello
        # would start new work), then stop.
        for src, msg in bus.drain("master"):
            if msg.kind != "hello":
                master.on_message(src, msg)
    verdict = master.verdict or Verdict(status="unknown", cost=master.best_cost, model=master.best_model)
    return SimOutcome(
        verdict=verdict,
        improvements=[mu for event, _lam, mu in master.audit if event == "sat"],
        audit=list(master.audit),
        trace=list(bus.trace),
        master=master,
    )
