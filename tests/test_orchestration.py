import hashlib
import random

import pytest

from distmaxsat.bounds import initial_bounds
from distmaxsat.engine import Engine
from distmaxsat.formula import cost, make_formula
from distmaxsat.oracle import HARD_UNSAT, brute_force, gen_random
from distmaxsat.orchestration import (
    GpMaster,
    SssMaster,
    WorkerNode,
    initial_upper_bound,
    run_sim,
)
from distmaxsat.sequential import msu3
from distmaxsat.transport import Message, SimBus, decode_message

from conftest import pigeonhole


def test_initial_upper_bound_hard_unsat():
    f = make_formula(1, [[1], [-1]], [[1]])
    assert initial_upper_bound(f) is None


def test_initial_upper_bound_all_soft_satisfied():
    f = make_formula(2, [[1], [2]], [[1], [2]])
    mu, model = initial_upper_bound(f)
    assert mu == 0
    assert cost(f, model) == 0


def test_initial_upper_bound_at_least_optimum():
    for seed in range(20):
        f = gen_random(seed, num_vars=7, num_hard=6, num_soft=6, clause_len=3)
        opt = brute_force(f)
        start = initial_upper_bound(f, seed=seed)
        if opt == HARD_UNSAT:
            assert start is None
        else:
            assert start is not None and start[0] >= opt


def answers(worker, kind, payload):
    """What `worker` sends for one task: the costs of the models it reports
    and the lb of its one `report_done`."""
    sent = []
    worker.send = sent.append
    worker.on_message(Message(kind, "master", payload))
    [lb] = [m.payload["lb"] for m in sent if m.kind == "report_done"]
    return [m.payload["cost"] for m in sent if m.kind == "report_sat"], lb


def solve_path(path, mu, f, worker=None):
    """What a gp path worker sends for `assign_path(path, mu)`."""
    return answers(worker or WorkerNode("w1", f, send=None), "assign_path", {"task": 0, "path": list(path), "mu": mu})


def test_gp_worker_path_contradicting_hard_clauses():
    f = make_formula(2, [[1]], [[2]])
    models, lb = solve_path([-1], mu=1, f=f)
    assert models == []
    assert lb == 0  # the core is the path literal alone: nothing holds globally


def test_gp_worker_path_pinning_better_model():
    # Path forces the zero-cost corner; mu=2 allows improvement to 0.
    f = make_formula(2, [], [[1], [2]])
    models, lb = solve_path([1, 2], mu=2, f=f)
    assert models == [0]
    assert lb == 0


def with_cube(f, cube):
    """`f` with the cube's literals as hard units."""
    return make_formula(f.num_vars, list(f.hard) + [[l] for l in cube], f.soft)


def probe(worker, bound):
    """What an sss helper sends for a probe at `bound`: the cell (∅, bound + 1)."""
    return answers(worker, "assign_path", {"task": bound, "path": [], "mu": bound + 1})


def random_cube(rng, f):
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, f.num_vars + 1), rng.randint(1, 3))]


def small_draws(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        num_vars = rng.randint(3, 10)
        f = gen_random(rng.randint(0, 10**7), num_vars, rng.randint(1, 2 * num_vars), rng.randint(1, 10),
                       min(3, num_vars))
        if brute_force(f) != HARD_UNSAT:
            yield rng, f


def check_probe(f, bound, models, lb):
    """A probe at b finds the optimum and proves it when it is at most b,
    and proves λ = b + 1 otherwise."""
    opt = brute_force(f)
    if opt <= bound:
        assert models == [opt] and lb == opt, (f, bound, models, lb)
    else:
        assert models == [] and lb == bound + 1, (f, bound, models, lb)


def check_cell(f, cube, mu, models, lb):
    """A cell below μ closes without a model exactly when no model under the
    cube costs less than μ; a model it reports is the cube's best, and its lb
    holds for the whole formula."""
    best = brute_force(with_cube(f, cube))
    if best != HARD_UNSAT and best < mu:
        assert models == [best], (f, cube, mu, models)
    else:
        assert models == [], (f, cube, mu, models)
    assert lb <= min(mu, brute_force(f)), (f, cube, mu, lb)


def test_bound_probe_finds_a_model_exactly_when_the_optimum_is_within_it():
    for case, (_rng, f) in enumerate(small_draws(21, 40)):
        for bound in range(f.num_soft + 1):
            check_probe(f, bound, *probe(WorkerNode("w1", f, send=None, seed=case), bound))


def test_cell_below_mu_closes_without_a_model_exactly_when_the_cube_has_none_cheaper():
    for case, (rng, f) in enumerate(small_draws(22, 40)):
        for _ in range(4):
            cube, mu = random_cube(rng, f), rng.randint(1, f.num_soft + 1)
            check_cell(f, cube, mu, *solve_path(cube, mu, f, WorkerNode("w1", f, send=None, seed=case)))


def test_relaxed_set_carried_across_tasks_with_different_cubes_stays_sound():
    """One worker takes probes and cells in turn, each on a state of its own:
    nothing an earlier task relaxed or learned reaches a later one, so each
    probe answers as on a fresh worker."""
    for case, (rng, f) in enumerate(small_draws(23, 40)):
        worker = WorkerNode("w1", f, send=None, seed=case)
        for _ in range(8):
            if rng.random() < 0.3:
                bound = rng.randint(0, f.num_soft)
                answer = probe(worker, bound)
                assert answer == probe(WorkerNode("w1", f, send=None, seed=case), bound), (f, bound)
                check_probe(f, bound, *answer)
            else:
                cube, mu = random_cube(rng, f), rng.randint(1, f.num_soft + 1)
                check_cell(f, cube, mu, *solve_path(cube, mu, f, worker))


def sim_and_check(f, algo, workers, seed):
    expected = brute_force(f)
    outcome = run_sim(f, algo, num_workers=workers, seed=seed)
    if expected == HARD_UNSAT:
        assert outcome.verdict.status == "unsatisfiable", (algo, workers, seed)
    else:
        assert outcome.verdict.status == "optimum", (algo, workers, seed)
        assert outcome.verdict.cost == expected, (algo, workers, seed)
        assert cost(f, outcome.verdict.model) == expected
        # anytime contract: improvements strictly decreasing
        assert outcome.improvements == sorted(set(outcome.improvements), reverse=True)
    return outcome


def test_sss_sim_small_batch_matches_oracle():
    rng = random.Random(5)
    for case in range(40):
        num_vars = rng.randint(2, 10)
        f = gen_random(
            rng.randint(0, 10**7), num_vars, rng.randint(1, 2 * num_vars),
            rng.randint(0, 10), min(3, num_vars),
        )
        outcome = sim_and_check(f, "sss", workers=4, seed=case)
        opt = brute_force(f)
        if opt != HARD_UNSAT:
            for event, lam, mu in outcome.audit:
                assert lam <= opt <= mu, (case, event)


def test_gp_sim_small_batch_matches_oracle():
    rng = random.Random(6)
    for case in range(40):
        num_vars = rng.randint(2, 10)
        f = gen_random(
            rng.randint(0, 10**7), num_vars, rng.randint(1, 2 * num_vars),
            rng.randint(0, 10), min(3, num_vars),
        )
        sim_and_check(f, "gp", workers=4, seed=case)


def test_single_worker_role_collapse():
    f = gen_random(11, num_vars=6, num_hard=5, num_soft=6, clause_len=3)
    for algo in ("sss", "gp"):
        sim_and_check(f, algo, workers=1, seed=3)


def test_worker_counts_agree():
    for seed in range(8):
        f = gen_random(200 + seed, num_vars=8, num_hard=7, num_soft=8, clause_len=3)
        costs = set()
        for algo in ("sss", "gp"):
            for workers in (1, 2, 4, 8):
                outcome = run_sim(f, algo, num_workers=workers, seed=seed)
                costs.add((outcome.verdict.status, outcome.verdict.cost))
        assert len(costs) == 1, costs


def test_same_seed_same_trace():
    f = gen_random(77, num_vars=8, num_hard=6, num_soft=8, clause_len=3)
    a = run_sim(f, "sss", num_workers=4, seed=9)
    b = run_sim(f, "sss", num_workers=4, seed=9)
    assert a.trace == b.trace
    c = run_sim(f, "gp", num_workers=4, seed=9)
    d = run_sim(f, "gp", num_workers=4, seed=9)
    assert c.trace == d.trace


def test_different_seeds_same_optimum():
    f = gen_random(88, num_vars=9, num_hard=8, num_soft=9, clause_len=3)
    expected = brute_force(f)
    for seed in range(6):
        outcome = run_sim(f, "sss", num_workers=4, seed=seed)
        assert outcome.verdict.cost == expected


def early_termination_formula():
    """Hard units pin vars 1,2 while softs contradict them: cost >= 2 is a
    level-0 propagation fact, so any bound-1 unsat core is just the bound
    literal and never a path literal.  Vars 3..10 give the generator room."""
    hard = [[1], [2]] + [[v, v + 1] for v in range(3, 10)]
    soft = [[-1], [-2]] + [[v] for v in range(3, 11)]
    return make_formula(10, hard, soft)


def test_path_worker_core_excludes_path_literals():
    f = early_termination_formula()
    for path in ([3], [3, -4], [5, 6, 7]):
        assert solve_path(path, mu=2, f=f) == ([], 2)  # no model below μ, and λ = μ holds globally


def test_gp_early_termination_on_proof_independent_core():
    f = early_termination_formula()
    expected = brute_force(f)
    for seed in range(8):
        outcome = run_sim(f, "gp", num_workers=4, seed=seed)
        assert outcome.verdict.cost == expected
        assert outcome.master.terminated_early
        assert len(outcome.master.pending) > 0


def test_gp_root_generation_stops_at_the_path_budget():
    outcome = run_sim(pigeonhole(1), "gp", num_workers=2, seed=0)
    assert outcome.verdict.status == "optimum" and outcome.verdict.cost == 1
    # One path worker beside the whole-formula worker: 4 paths per path worker.
    root_paths = [p for p in outcome.master.generated_paths if p.parent_index is None]
    assert 0 < len(root_paths) <= 4


def test_sim_deadline_stops_worker_tasks_within_one_sat_call(monkeypatch):
    """The clock reads the number of SAT calls begun so far, so the deadline
    passes as a worker task begins its third call; that call must stop at
    once, the run end "unknown", and no further SAT call start."""
    calls = []
    solve = Engine.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "solve", counted)
    f = pigeonhole(3)
    for algo in ("sss", "gp"):
        calls.clear()
        outcome = run_sim(f, algo, num_workers=3, seed=1, deadline=2, clock=lambda: len(calls))
        assert outcome.verdict.status == "unknown", algo
        assert outcome.verdict.cost == outcome.master.best_cost, algo
        assert len(calls) == 3, (algo, len(calls))


def test_sim_deadline_keeps_models_reported_before_it(monkeypatch):
    """The clock reads the number of models reported so far, so the deadline
    passes as soon as a path task sends its first `report_sat`, and the run
    stops before its next delivery with the report still on the bus.  The
    master must receive it: the run, still open, ends "unknown" with the
    reported model in the verdict."""
    reported = []
    send = SimBus.send

    def recorded(self, src, dst, msg):
        if msg.kind == "report_sat":
            reported.append(msg.payload["cost"])
        return send(self, src, dst, msg)

    monkeypatch.setattr(SimBus, "send", recorded)
    f = pigeonhole(3)
    outcome = run_sim(f, "gp", num_workers=3, seed=0, deadline=0, clock=lambda: len(reported))
    assert len(reported) == 1
    assert outcome.verdict.status == "unknown"
    assert outcome.verdict.cost == reported[0]
    assert cost(f, outcome.verdict.model) == reported[0]


@pytest.mark.parametrize("algo", ["sss", "gp"])
def test_audit_log_progression(algo):
    """λ only rises, μ only falls, and they meet at the optimum."""
    f = gen_random(123, num_vars=9, num_hard=6, num_soft=10, clause_len=3)
    opt = brute_force(f)
    if opt == HARD_UNSAT:
        pytest.skip("instance not suitable")
    outcome = run_sim(f, algo, num_workers=4, seed=0)
    lams = [lam for _, lam, _ in outcome.audit]
    mus = [mu for _, _, mu in outcome.audit]
    assert lams == sorted(lams)
    assert mus == sorted(mus, reverse=True)
    assert outcome.audit[-1][1] == outcome.audit[-1][2] == opt


def test_sss_immediate_optimum_when_initial_model_is_free():
    # The hard-clause model already satisfies every soft clause.
    f = make_formula(2, [[1], [2]], [[1], [2], [1, 2]])
    for algo in ("sss", "gp"):
        outcome = run_sim(f, algo, num_workers=3, seed=1)
        assert outcome.verdict.status == "optimum"
        assert outcome.verdict.cost == 0


def test_gp_queue_priority_shortest_then_oldest():
    sent = []
    f = make_formula(4, [[1, 2], [3, 4]], [[1], [2], [3], [4]])
    master = GpMaster(f, ["w1", "w2"], send=lambda dst, m: sent.append((dst, m)), seed=0)
    for wid in ("w1", "w2"):
        master.on_message(wid, Message("hello", wid))
    from distmaxsat.lookahead import GuidingPath

    master.pending = [
        GuidingPath((1, 2, 3), gen_index=0),
        GuidingPath((1, -2), gen_index=5),
        GuidingPath((1, 2), gen_index=2),
    ]
    master._sort_pending()
    assert [p.gen_index for p in master.pending] == [2, 5, 0]


def test_sss_master_survives_worker_loss():
    f = gen_random(7, num_vars=7, num_hard=6, num_soft=8, clause_len=3)
    expected = brute_force(f)
    if expected == HARD_UNSAT:
        pytest.skip("unsuitable instance")
    # Run a sim but drop one worker's channel mid-flight by intercepting the
    # bus: simplest deterministic check is the master-level handler.
    from distmaxsat.transport import SimBus

    ids = ["w1", "w2", "w3"]
    bus = SimBus(0, ["master"] + ids)
    master = SssMaster(f, ids, send=lambda dst, m: bus.send("master", dst, m), seed=0)
    workers = {
        wid: WorkerNode(wid, f, send=lambda m, _w=wid: bus.send(_w, "master", m), seed=i)
        for i, wid in enumerate(ids, 1)
    }
    for wid in ids:
        workers[wid].hello()
    lost = False
    while not master.finished and bus.pending():
        src, dst, msg = bus.deliver_next()
        if dst == "master":
            master.on_message(src, msg)
            if not lost and not master.finished and "w3" in master.helpers:
                master.on_worker_lost("w3")
                lost = True
        elif dst != "w3" or not lost:
            workers[dst].on_message(msg)
    assert master.finished
    assert master.verdict.cost == expected


def test_gp_master_requeues_tasks_of_lost_worker():
    f = make_formula(3, [[1, 2]], [[1], [2], [3]])
    sent = []
    master = GpMaster(f, ["w1", "w2", "w3"], send=lambda dst, m: sent.append((dst, m)), seed=0)
    for wid in ("w1", "w2", "w3"):
        master.on_message(wid, Message("hello", wid))
    lost = master.tasks["w2"]
    master.on_worker_lost("w2")
    assert "w2" not in master.tasks and master.helpers == ["w3"]
    # Its path goes back to the queue, first among paths of its depth.
    assert lost.path in master.pending
    assert master.pending == sorted(master.pending, key=lambda p: (p.depth, p.gen_index))


def run_master_to_end(master, workers, bus):
    """Deliver every message until the master finishes or the bus is empty."""
    while not master.finished and bus.pending():
        src, dst, msg = bus.deliver_next()
        if dst == "master":
            master.on_message(src, msg)
        else:
            workers[dst].on_message(msg)


@pytest.mark.parametrize("master_cls", [SssMaster, GpMaster])
def test_worker_lost_before_its_hello_leaves_the_rest_to_run(master_cls):
    """The roster shrinks; the run begins once every remaining worker said
    hello, and it neither ends early nor waits for the lost worker."""
    f = gen_random(7, num_vars=12, num_hard=10, num_soft=20, clause_len=3)
    expected = brute_force(f)
    bus = SimBus(0, ["master", "w1", "w2"])
    master = master_cls(f, ["w1", "w2"], send=lambda dst, m: bus.send("master", dst, m), seed=0)
    workers = {"w1": WorkerNode("w1", f, send=lambda m: bus.send("w1", "master", m), seed=1)}
    # Lost before anyone said hello: nothing is decided yet.
    master.on_worker_lost("w2")
    assert master.verdict is None and not master._begun
    workers["w1"].hello()
    run_master_to_end(master, workers, bus)
    assert master.verdict.status == "optimum"
    assert master.verdict.cost == expected


@pytest.mark.parametrize("master_cls", [SssMaster, GpMaster])
def test_worker_lost_after_the_others_said_hello_begins_the_run(master_cls):
    f = gen_random(7, num_vars=12, num_hard=10, num_soft=20, clause_len=3)
    expected = brute_force(f)
    bus = SimBus(0, ["master", "w1", "w2"])
    master = master_cls(f, ["w1", "w2"], send=lambda dst, m: bus.send("master", dst, m), seed=0)
    workers = {"w2": WorkerNode("w2", f, send=lambda m: bus.send("w2", "master", m), seed=2)}
    master.on_message("w2", Message("hello", "w2"))
    assert not master._begun
    master.on_worker_lost("w1")
    assert master._begun
    assert master.worker_ids == ["w2"]
    run_master_to_end(master, workers, bus)
    assert master.verdict.status == "optimum"
    assert master.verdict.cost == expected


def test_worker_ends_cleanly_on_terminate():
    sent = []
    w = WorkerNode("w1", make_formula(1, [], [[1]]), send=sent.append, seed=0)
    w.on_message(Message("terminate", "master", {"verdict": "unknown", "cost": -1, "model": []}))
    assert w.done
    assert sent == []


WORKER_REPORTS = {"hello", "report_sat", "report_done"}
MASTER_ORDERS = {"assign_path", "terminate"}


@pytest.mark.parametrize("algo", ["sss", "gp"])
@pytest.mark.parametrize("workers", [2, 3])
def test_workers_send_models_proofs_and_one_done_per_task(monkeypatch, algo, workers):
    """Workers send only hello and the two report kinds, the master only
    tasks and terminate, and workers answer every assign_path they handle
    with exactly one report_done that names its task, in order."""
    sent = []
    send = SimBus.send

    def recorded(self, src, dst, msg):
        sent.append((src, dst, msg))
        return send(self, src, dst, msg)

    handled = []
    on_message = WorkerNode.on_message

    def traced(node, msg):
        handled.append((node.wid, msg))
        return on_message(node, msg)

    monkeypatch.setattr(SimBus, "send", recorded)
    monkeypatch.setattr(WorkerNode, "on_message", traced)
    instances = [gen_random(300 + i, num_vars=10, num_hard=8, num_soft=12, clause_len=3) for i in range(5)]
    dones = 0
    for seed, f in enumerate(instances + [pigeonhole(2)]):
        sent.clear()
        handled.clear()
        outcome = run_sim(f, algo, num_workers=workers, seed=seed)
        assert outcome.verdict.status == "optimum"
        assert outcome.verdict.cost == (2 if f.num_vars == 40 else brute_force(f))
        assert {m.kind for _src, dst, m in sent if dst == "master"} <= WORKER_REPORTS
        assert {m.kind for src, _dst, m in sent if src == "master"} <= MASTER_ORDERS
        for wid in (f"w{i}" for i in range(1, workers + 1)):
            tasks = [m.payload["task"] for w, m in handled if w == wid and m.kind == "assign_path"]
            done = [m.payload["task"] for src, _dst, m in sent if src == wid and m.kind == "report_done"]
            assert done == tasks, (seed, wid)
            dones += len(done)
    assert dones > 0


def begun_master(master_cls, f, ids):
    """A master started, as a socket master is, before any hello, that has
    then seen every hello; returns it and what it sent."""
    sent = []
    master = master_cls(f, ids, send=lambda dst, m: sent.append((dst, m)), seed=0)
    master.start()
    for wid in ids:
        master.on_message(wid, Message("hello", wid))
    return master, sent


def test_sss_caps_a_probe_lower_bound_at_bound_plus_one():
    f = pigeonhole(2)
    master, sent = begun_master(SssMaster, f, ["w1", "w2", "w3"])
    mu = master.window.mu
    probes = {dst: m.payload["task"] for dst, m in sent if m.kind == "assign_path" and dst != "w1"}
    assert all(m.payload == {"task": probes[dst], "path": [], "mu": probes[dst] + 1}
               for dst, m in sent if dst in probes)
    assert mu >= 3 and probes["w2"] + 1 < mu
    # A live probe claiming far more than it can prove lifts λ to bound+1 only.
    master.on_message("w2", Message("report_done", "w2", {"task": probes["w2"], "lb": mu + 5}))
    assert master.window.lam == probes["w2"] + 1
    assert not master.finished
    # A report naming a bound the sender does not hold adds nothing.
    master.on_message("w2", Message("report_done", "w2", {"task": probes["w3"], "lb": mu + 5}))
    assert master.window.lam == probes["w2"] + 1
    assert not master.finished


def test_gp_ignores_stale_done_and_caps_live_lower_bound_at_mu_sent():
    f = pigeonhole(2)
    master, sent = begun_master(GpMaster, f, ["w1", "w2", "w3"])
    paths = {dst: m.payload for dst, m in sent if m.kind == "assign_path"}
    w2_task, w3_task = paths["w2"]["task"], paths["w3"]["task"]
    huge = 10 * f.num_soft
    # Another worker's task, then a task its owner already concluded: stale.
    master.on_message("w3", Message("report_done", "w3", {"task": w2_task, "lb": huge}))
    master.on_message("w2", Message("report_done", "w2", {"task": w2_task, "lb": 0}))
    master.on_message("w2", Message("report_done", "w2", {"task": w2_task, "lb": huge}))
    assert master.window.lam == 0
    assert not master.finished
    # A live task proves at most the μ it was sent.  That μ is never below
    # the current one, so the claim closes the window, at λ = μ sent, and the
    # master's own hard-clause model, held since the start, is the answer.
    held = master.best_cost
    assert held is not None and paths["w3"]["mu"] == held
    master.on_message("w3", Message("report_done", "w3", {"task": w3_task, "lb": huge}))
    assert master.window.lam == paths["w3"]["mu"]
    assert master.finished and master.verdict.status == "optimum" and master.verdict.cost == held


def test_gp_stale_done_leaves_the_senders_live_task_in_place():
    """A done naming another worker's task must not mark its sender idle:
    the sender still holds its own path, so it gets no second one."""
    f = pigeonhole(2)
    master, sent = begun_master(GpMaster, f, ["w1", "w2", "w3"])
    tasks = {dst: m.payload["task"] for dst, m in sent if m.kind == "assign_path"}
    sent.clear()
    master.on_message("w3", Message("report_done", "w3", {"task": tasks["w2"], "lb": 0}))
    assert [m.kind for dst, m in sent if dst == "w3"] == []
    assert {wid: task.id for wid, task in master.tasks.items()} == tasks


def test_gp_publishes_the_hard_clause_model_before_any_path(monkeypatch):
    """The first `o` of a gp run is the master's own SAT call on the hard
    clauses, made before any path is handed out."""
    events = []
    on_message = WorkerNode.on_message

    def traced(node, msg):
        events.append(msg.kind)
        return on_message(node, msg)

    monkeypatch.setattr(WorkerNode, "on_message", traced)
    f = pigeonhole(3)
    start_cost, _model = initial_upper_bound(f, seed=4)
    outcome = run_sim(f, "gp", num_workers=3, seed=4, on_improve=lambda c, _m: events.append(("improve", c)))
    assert outcome.verdict.status == "optimum" and outcome.verdict.cost == 3 < start_cost
    assert events[0] == ("improve", start_cost)
    assert "assign_path" in events


ENGINE_DRAW = gen_random(4, num_vars=16, num_hard=35, num_soft=32, clause_len=3)


def spy_engines(monkeypatch):
    """The list every engine built from here on in the test is appended to."""
    engines = []
    init = Engine.__init__

    def spied_init(engine, *args, **kwargs):
        engines.append(engine)
        return init(engine, *args, **kwargs)

    monkeypatch.setattr(Engine, "__init__", spied_init)
    return engines


def engines_built(monkeypatch, f, tasks):
    """Hand one worker the `(kind, payload)` tasks in order; returns how many
    engines it builds and the tasks its report_done lines name."""
    engines, sent = spy_engines(monkeypatch), []
    worker = WorkerNode("w1", f, send=sent.append, seed=1)
    for kind, payload in tasks:
        worker.on_message(Message(kind, "master", payload))
    return len(engines), [m.payload["task"] for m in sent if m.kind == "report_done"]


def test_a_path_cell_answers_as_on_a_fresh_worker_whatever_came_before():
    """A worker that has taken probes and other cells, task -1 among them,
    sends for a cell exactly what a fresh worker sends for it, and that
    answer is right by brute force."""
    for case, (rng, f) in enumerate(small_draws(26, 30)):
        worker = WorkerNode("w1", f, send=None, seed=case)
        for task in range(6):
            if rng.random() < 0.3:
                bound = rng.randint(0, f.num_soft)
                probe(worker, bound)
                continue
            cube = [] if task == 0 else random_cube(rng, f)
            mu = rng.randint(1, f.num_soft + 1)
            answer = solve_path(cube, mu, f, worker)
            assert answer == solve_path(cube, mu, f, WorkerNode("w1", f, send=None, seed=case)), (f, cube, mu)
            check_cell(f, cube, mu, *answer)


def test_an_sss_worker_builds_one_engine_per_task(monkeypatch):
    """Every bound probe a worker takes, and task -1 after them, runs on an
    engine of its own."""
    f = ENGINE_DRAW
    mu, _model = initial_upper_bound(f, seed=1)
    bounds = initial_bounds(mu, 3).bounds[1:]
    assert len(bounds) == 3
    tasks = [("assign_path", {"task": b, "path": [], "mu": b + 1}) for b in bounds]
    tasks.append(("assign_path", {"task": -1, "path": [], "mu": mu}))
    assert engines_built(monkeypatch, f, tasks) == (4, bounds + [-1])


@pytest.mark.parametrize("algo", ["sss", "gp"])
def test_hard_unsat_run_ends_before_any_task(monkeypatch, algo):
    sent = []
    send = SimBus.send

    def recorded(self, src, dst, msg):
        sent.append((src, msg.kind))
        return send(self, src, dst, msg)

    monkeypatch.setattr(SimBus, "send", recorded)
    f = make_formula(3, [[1], [-1, 2], [-2, 3], [-3]], [[1], [2], [3]])
    outcome = run_sim(f, algo, num_workers=3, seed=0)
    assert outcome.verdict.status == "unsatisfiable"
    assert {kind for src, kind in sent if src == "master"} == {"terminate"}


# Digests of the sim traces of fixed sss runs: any change to sss's search,
# its messages or their order shows here.
SSS_TRACE_DIGESTS = [
    ((1000, 10, 22, 20), 2, 0, "172be700c31bcd88"),
    ((1000, 10, 22, 20), 3, 0, "84c309b5aca22b94"),
    ((1001, 12, 26, 24), 2, 1, "c223a7204be250f9"),
    ((1001, 12, 26, 24), 3, 1, "6f29cef0d3a3c183"),
    ((1002, 14, 31, 28), 2, 2, "053d7238f84a9309"),
    ((1002, 14, 31, 28), 3, 2, "99b42f95225e674b"),
    ((1003, 16, 35, 32), 2, 3, "d3590f05c0e9811a"),
    ((1003, 16, 35, 32), 3, 3, "a39b74a7d8162011"),
    ((6, 30, 66, 60), 3, 6, "8c8d026f0eec2073"),
    ("pigeonhole(2)", 2, 7, "a991c7f9eae0cdaf"),
    ("pigeonhole(2)", 3, 7, "7b5b05350b3753b6"),
]


# The same draws for gp: any change to its paths, its dispatch order or its
# messages shows here.
GP_TRACE_DIGESTS = [
    ((1000, 10, 22, 20), 2, 0, "172be700c31bcd88"),
    ((1000, 10, 22, 20), 3, 0, "62c826214bb9a399"),
    ((1001, 12, 26, 24), 2, 1, "6475986f2e7ec97c"),
    ((1001, 12, 26, 24), 3, 1, "72b0c76771122767"),
    ((1002, 14, 31, 28), 2, 2, "cf76abe99bcd8d27"),
    ((1002, 14, 31, 28), 3, 2, "03fa650213c6ec02"),
    ((1003, 16, 35, 32), 2, 3, "b0e9b31a4a173c6f"),
    ((1003, 16, 35, 32), 3, 3, "612aa35661cfb0e5"),
    ((6, 30, 66, 60), 3, 6, "56058f9d3cca4ec6"),
    ("pigeonhole(2)", 2, 7, "ce08e08b627eed18"),
    ("pigeonhole(2)", 3, 7, "e4ce563832dab28f"),
]


# msu3 alone on the same draws: (cost, conflicts summed over its engines).
# Standalone `msu3` runs no cell; its search must not move when the sss and
# gp cells' searches do.
MSU3_PINS = [
    ((1000, 10, 22, 20), 0, 3, 2),
    ((1001, 12, 26, 24), 1, 6, 11),
    ((1002, 14, 31, 28), 2, 6, 9),
    ((1003, 16, 35, 32), 3, 8, 7),
    ((6, 30, 66, 60), 6, 13, 20),
    ("pigeonhole(2)", 7, 2, 65),
]


def draw_formula(draw):
    return pigeonhole(2) if draw == "pigeonhole(2)" else gen_random(*draw, clause_len=3)


def trace_digest(algo, draw, workers, seed):
    outcome = run_sim(draw_formula(draw), algo, num_workers=workers, seed=seed)
    return hashlib.sha256(b"\n".join(outcome.trace)).hexdigest()[:16]


def digest_ids(digests):
    """`draw<i>-<workers>-<seed>`, without the digest, so a re-pin keeps the id."""
    return [f"{draw if isinstance(draw, str) else f'draw{i}'}-{workers}-{seed}"
            for i, (draw, workers, seed, _digest) in enumerate(digests)]


@pytest.mark.parametrize("draw,workers,seed,digest", SSS_TRACE_DIGESTS, ids=digest_ids(SSS_TRACE_DIGESTS))
def test_sss_sim_trace_is_pinned(draw, workers, seed, digest):
    assert trace_digest("sss", draw, workers, seed) == digest


@pytest.mark.parametrize("draw,workers,seed,digest", GP_TRACE_DIGESTS, ids=digest_ids(GP_TRACE_DIGESTS))
def test_gp_sim_trace_is_pinned(draw, workers, seed, digest):
    assert trace_digest("gp", draw, workers, seed) == digest


@pytest.mark.parametrize("draw,seed,expected_cost,conflicts", MSU3_PINS)
def test_msu3_search_is_pinned(monkeypatch, draw, seed, expected_cost, conflicts):
    engines = spy_engines(monkeypatch)
    outcome = msu3(draw_formula(draw), seed=seed)
    assert (outcome.cost, sum(e.conflicts for e in engines)) == (expected_cost, conflicts)


# Standalone `msu3` (seed 0) on `gen_random(5, 70, 80, 200, 3)`: optimum 36,
# found with this many conflicts.
SCALE_DRAW_MSU3_CONFLICTS = 3532


def test_sim_gp_proves_a_scale_draw_in_fewer_conflicts_than_msu3(monkeypatch):
    """Engine work, not wall time: sim gp with 3 workers proves the optimum
    in fewer conflicts, summed over every engine it builds (the master's,
    the lookahead's and each cell's), than standalone `msu3` needs alone."""
    engines = spy_engines(monkeypatch)
    outcome = run_sim(gen_random(5, 70, 80, 200, 3), "gp", num_workers=3, seed=0)
    assert (outcome.verdict.status, outcome.verdict.cost) == ("optimum", 36)
    assert sum(e.conflicts for e in engines) < SCALE_DRAW_MSU3_CONFLICTS


def test_sim_sss_proves_a_scale_draw_in_fewer_conflicts_than_msu3(monkeypatch):
    """The same for sim sss with 3 workers: the master's engine, task -1's
    and each bound probe's, every probe a cell of its own."""
    engines = spy_engines(monkeypatch)
    outcome = run_sim(gen_random(5, 70, 80, 200, 3), "sss", num_workers=3, seed=0)
    assert (outcome.verdict.status, outcome.verdict.cost) == ("optimum", 36)
    assert sum(e.conflicts for e in engines) < SCALE_DRAW_MSU3_CONFLICTS


def hello_from(wid):
    return Message("hello", wid)


@pytest.mark.parametrize("algo", ["sss", "gp"])
def test_late_helpers_get_their_first_task_and_the_run_finds_the_optimum(algo):
    """A master sized for N workers begins with w1 alone.  w2, joining just
    after, gets what a full roster would have given it at the start: the
    lowest bound of the initial split (sss) or the first root path (gp), from
    the same root frontier as a sim run with N workers.  The others join at
    random points; the run still proves the optimum."""
    master_cls = SssMaster if algo == "sss" else GpMaster
    checked = 0
    for case, (rng, f) in enumerate(small_draws(24, 30)):
        size = rng.randint(2, 4)
        ids = [f"w{i}" for i in range(1, size + 1)]
        bus = SimBus(case, ["master"] + ids)
        master = master_cls(f, [], send=lambda dst, m: bus.send("master", dst, m), seed=case, size=size)
        workers = {
            wid: WorkerNode(wid, f, send=lambda m, _w=wid: bus.send(_w, "master", m), seed=i)
            for i, wid in enumerate(ids, 1)
        }
        master.start()
        if master.finished:  # the hard-clause model is optimal
            continue
        master.join("w1")
        master.on_message("w1", hello_from("w1"))
        mu = master.window.mu
        [lead_task] = (decode_message(data) for data in bus.queues[("master", "w1")])
        assert lead_task == Message("assign_path", "master", {"task": -1, "path": [], "mu": mu})
        master.join("w2")
        master.on_message("w2", hello_from("w2"))
        [task] = (decode_message(data) for data in bus.queues[("master", "w2")])
        if algo == "sss":
            split = initial_bounds(mu, size - 1).bounds
            bound = (split[1:] or split)[0]
            assert task == Message("assign_path", "master", {"task": bound, "path": [], "mu": bound + 1})
        else:
            sim_roots = [p for p in run_sim(f, "gp", num_workers=size, seed=case).master.generated_paths
                         if p.parent_index is None]
            assert master.generated_paths == sim_roots
            first = min(sim_roots, key=lambda p: (p.depth, p.gen_index))
            assert task.kind == "assign_path" and task.payload["task"] == first.gen_index
            assert task.payload["path"] == list(first.decisions) and task.payload["mu"] == mu
        for wid in ids[2:]:
            for _ in range(rng.randint(0, 6)):
                if master.finished or not bus.pending():
                    break
                src, dst, msg = bus.deliver_next()
                if dst == "master":
                    master.on_message(src, msg)
                else:
                    workers[dst].on_message(msg)
            master.join(wid)
            workers[wid].hello()
        run_master_to_end(master, workers, bus)
        assert master.verdict.status == "optimum" and master.verdict.cost == brute_force(f), (case, algo)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("master_cls", [SssMaster, GpMaster])
def test_a_finished_master_answers_a_hello_with_terminate(master_cls):
    """Started before any worker joins, a master that proves its answer at
    once (hard clauses unsatisfiable, or a hard-clause model of cost 0)
    sends nothing, and then answers each hello with its verdict."""
    unsat = make_formula(3, [[1], [-1, 2], [-2, 3], [-3]], [[1], [2], [3]])
    free = make_formula(2, [[1], [2]], [[1], [2], [1, 2]])
    for f, verdict in ((unsat, {"verdict": "unsatisfiable", "cost": -1, "model": []}),
                       (free, {"verdict": "optimum", "cost": 0, "model": [1, 2]})):
        sent = []
        master = master_cls(f, [], send=lambda dst, m: sent.append((dst, m)), seed=0, size=2)
        master.start()
        assert master.finished and sent == []
        for wid in ("w1", "w2"):
            master.join(wid)
            master.on_message(wid, hello_from(wid))
        terminate = Message("terminate", "master", verdict)
        assert sent == [("w1", terminate), ("w2", terminate)]
