import hashlib
import random
from collections import Counter

import pytest

from distmaxsat.engine import Engine
from distmaxsat.formula import cost, make_formula, relax
from distmaxsat.oracle import HARD_UNSAT, brute_force, gen_random
from distmaxsat.orchestration import (
    GpMaster,
    SssMaster,
    WorkerNode,
    initial_upper_bound,
    run_sim,
)
from distmaxsat.sequential import NoImprovement, Optimum, linear_su
from distmaxsat.transport import Message, SimBus

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


def solve_path(path, mu, rf):
    """What a gp path worker runs for `assign_path(path, mu)`."""
    return linear_su(rf, ub_init=min(mu - 1, len(rf.relax_vars)), path=path)


def test_gp_worker_path_contradicting_hard_clauses():
    f = make_formula(2, [[1]], [[2]])
    outcome = solve_path([-1], mu=1, rf=relax(f))
    assert isinstance(outcome, NoImprovement)
    assert outcome.proof_independent is False  # core must use the path literal


def test_gp_worker_path_pinning_better_model():
    # Path forces the zero-cost corner; mu=2 allows improvement to 0.
    f = make_formula(2, [], [[1], [2]])
    outcome = solve_path([1, 2], mu=2, rf=relax(f))
    assert isinstance(outcome, Optimum)
    assert outcome.cost == 0


def test_gp_worker_requires_positive_mu():
    f = make_formula(1, [], [[1]])
    with pytest.raises(ValueError):
        solve_path([], mu=0, rf=relax(f))


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
    rf = relax(f)
    for path in ([3], [3, -4], [5, 6, 7]):
        outcome = solve_path(path, mu=2, rf=rf)
        assert isinstance(outcome, NoImprovement)
        assert outcome.proof_independent is True


def test_gp_early_termination_on_proof_independent_core():
    f = early_termination_formula()
    expected = brute_force(f)
    for seed in range(8):
        outcome = run_sim(f, "gp", num_workers=4, seed=seed)
        assert outcome.verdict.cost == expected
        assert outcome.master.terminated_early
        assert outcome.master.pending_at_termination > 0


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
    passes as soon as a path task sends its first `report_sat`, and that
    task's next SAT call stops it with the report still on the bus.  The
    master must receive it: the reported model is in the verdict."""
    reported = []
    send = SimBus.send

    def recorded(self, src, dst, msg):
        if msg.kind == "report_sat":
            reported.append(msg.payload["cost"])
        return send(self, src, dst, msg)

    monkeypatch.setattr(SimBus, "send", recorded)
    f = pigeonhole(3)
    outcome = run_sim(f, "gp", num_workers=3, seed=1, deadline=0, clock=lambda: len(reported))
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
        master.on_message(wid, Message("hello", wid, {"role": "worker"}))
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
            if not lost and not master.finished and "w3" in master.linear_workers:
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
        master.on_message(wid, Message("hello", wid, {"role": "worker"}))
    in_flight_before = dict(master.in_flight)
    victims = [task for task, (_p, _mu, _seq, wid) in in_flight_before.items() if wid == "w2"]
    master.on_worker_lost("w2")
    for task in victims:
        assert task not in master.in_flight


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
    master.on_message("w2", Message("hello", "w2", {"role": "worker"}))
    assert not master._begun
    master.on_worker_lost("w1")
    assert master._begun
    assert master.worker_ids == ["w2"]
    run_master_to_end(master, workers, bus)
    assert master.verdict.status == "optimum"
    assert master.verdict.cost == expected


def test_worker_ignores_abort_and_terminate_cleanly():
    sent = []
    w = WorkerNode("w1", make_formula(1, [], [[1]]), send=sent.append, seed=0)
    w.on_message(Message("abort", "master", {}))
    w.on_message(Message("terminate", "master", {"verdict": "unknown", "cost": -1, "model": []}))
    assert w.done
    assert sent == []


WORKER_REPORTS = {"hello", "report_sat", "report_lower_bound", "report_done"}


@pytest.mark.parametrize("algo", ["sss", "gp"])
@pytest.mark.parametrize("workers", [2, 3])
def test_workers_send_models_proofs_and_one_done_per_task(monkeypatch, algo, workers):
    """Workers send only hello and the three report kinds, and answer every
    assign_bound/assign_path they handle with exactly one report_done that
    names its task, in order."""
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
        for wid in (f"w{i}" for i in range(1, workers + 1)):
            tasks = [
                m.payload["bound"] if m.kind == "assign_bound" else m.payload["task"]
                for w, m in handled if w == wid and m.kind in ("assign_bound", "assign_path")
            ]
            done = [m.payload["task"] for src, _dst, m in sent if src == wid and m.kind == "report_done"]
            assert done == tasks, (seed, wid)
            dones += len(done)
    assert dones > 0


def begun_master(master_cls, f, ids):
    """A master that has seen every hello; returns it and what it sent."""
    sent = []
    master = master_cls(f, ids, send=lambda dst, m: sent.append((dst, m)), seed=0)
    for wid in ids:
        master.on_message(wid, Message("hello", wid, {"role": "worker"}))
    return master, sent


def test_sss_caps_a_probe_lower_bound_at_bound_plus_one():
    f = pigeonhole(2)
    master, sent = begun_master(SssMaster, f, ["w1", "w2", "w3"])
    mu = master.window.mu
    probes = {dst: m.payload["bound"] for dst, m in sent if m.kind == "assign_bound"}
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


def test_a_gp_worker_builds_one_engine_for_all_its_paths(monkeypatch):
    """Task -1 and every path a worker takes share one engine."""
    handling = []  # the worker whose message is being handled
    engines, tasks = Counter(), Counter()
    init = Engine.__init__

    def spied_init(engine, *args, **kwargs):
        if handling:
            engines[handling[-1]] += 1
        return init(engine, *args, **kwargs)

    on_message = WorkerNode.on_message

    def traced(node, msg):
        if msg.kind == "assign_path":
            tasks[node.wid] += 1
        handling.append(node.wid)
        try:
            return on_message(node, msg)
        finally:
            handling.pop()

    monkeypatch.setattr(Engine, "__init__", spied_init)
    monkeypatch.setattr(WorkerNode, "on_message", traced)
    f = gen_random(4, num_vars=16, num_hard=35, num_soft=32, clause_len=3)
    outcome = run_sim(f, "gp", num_workers=2, seed=1)
    assert outcome.verdict.cost == brute_force(f)
    assert tasks["w1"] == 1 and tasks["w2"] >= 3, tasks
    assert engines == Counter({wid: 1 for wid in tasks}), (engines, tasks)


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
    ((1000, 10, 22, 20), 2, 0, "cd5c853bcec4bdbb"),
    ((1000, 10, 22, 20), 3, 0, "21b269b3de53ce82"),
    ((1001, 12, 26, 24), 2, 1, "20476f15b5eb2b06"),
    ((1001, 12, 26, 24), 3, 1, "1103c7f77d5ecd6e"),
    ((1002, 14, 31, 28), 2, 2, "12ed8f1be388c6d5"),
    ((1002, 14, 31, 28), 3, 2, "bf94278c5ea28fe7"),
    ((1003, 16, 35, 32), 2, 3, "4d34773d27c9408a"),
    ((1003, 16, 35, 32), 3, 3, "43974d78b7beb1ac"),
    ((6, 30, 66, 60), 3, 6, "a30421302979c544"),
    ("pigeonhole(2)", 2, 7, "e42eaada7751a294"),
    ("pigeonhole(2)", 3, 7, "cecf3c0fc487cd36"),
]


@pytest.mark.parametrize("draw,workers,seed,digest", SSS_TRACE_DIGESTS)
def test_sss_sim_trace_is_pinned(draw, workers, seed, digest):
    f = pigeonhole(2) if draw == "pigeonhole(2)" else gen_random(*draw, clause_len=3)
    outcome = run_sim(f, "sss", num_workers=workers, seed=seed)
    assert hashlib.sha256(b"\n".join(outcome.trace)).hexdigest()[:16] == digest
