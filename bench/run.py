"""distmaxsat benchmark: time to a proven optimum per algorithm.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Workloads (see bench/NOTES.md for why each exists and what it leaves out):

    small-oracle  many 12-16-var instances, all four algorithms in process,
                  checked against the brute-force oracle
    mid-mixed     60-70-var random instances and pigeonhole blocks under
                  linear, msu3 and sim sss; gp on single pigeonhole blocks
    socket-2w     the real CLI: one master and 2 worker processes over TCP
                  for sss and gp, and standalone CLI runs of linear and msu3

With --trace 0 the end-to-end metrics are measured for --seconds seconds of
solving.  With --trace 1 a fixed pass of the workload runs twice, untraced
and then with every layer wrapped; the per-layer metrics, self times and the
tracing overhead come from that pair.  The last line of standard output is
one JSON object; per-solve details and spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
LAUNCH = BENCH / "launch.py"

ALGOS = ("linear", "msu3", "sss", "gp")
SOLVE_LIMIT_S = 60.0  # per solve; past it a solve counts as failed
KILL_GRACE_S = 5.0  # socket solves are killed this long after the limit
SETUP_PROBES = 7  # in-process set-up probes, right after the timed solving
SOLVERS = 2  # concurrent in-process solver processes: one per core of the 2-core target
SPEED_REF_S = 0.002  # speed_kernel's time on the reference core that in-process timings are scaled to
SPEED_EVERY_S = 0.25  # least solving time between two runs of speed_kernel


@dataclass
class Solve:
    instance: str
    algo: str
    status: str = "unknown"  # optimum | unsat | unknown | killed
    cost: int | None = None
    seconds: float = 0.0
    first_o: float | None = None
    model: dict | None = field(default=None, repr=False)
    fingerprint: list | None = None
    rss_kb: int = 0
    header_s: float | None = None
    exit_codes: list = field(default_factory=list)
    worker_stderr: list = field(default_factory=list)
    failure: str | None = None
    wrong: bool = False  # a verdict, cost or model that is false, not just missing
    scale: float = 1.0  # seconds on this core -> seconds on the reference core (SpeedMeter)

    def report(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "model"}


# ------------------------------------------------------------------ checking


def fail(solve: Solve, reason: str, wrong: bool) -> None:
    if solve.failure is None:
        solve.failure, solve.wrong = reason, wrong


def check_model(inst, solve: Solve) -> None:
    """The benchmark's own re-costing of a returned model."""
    from instances import recost

    if solve.status != "optimum":
        return
    got = recost(inst, solve.model or {})
    if got is None:
        fail(solve, "model not total or falsifies a hard clause", True)
    elif got != solve.cost:
        fail(solve, f"model costs {got}, reported {solve.cost}", True)


def verdict(solve: Solve):
    from instances import UNSAT

    return UNSAT if solve.status == "unsat" else solve.cost


def check_against(solves, ref) -> None:
    for s in solves:
        if s.failure is not None:
            continue
        if s.status not in ("optimum", "unsat"):
            fail(s, f"no proof: {s.status}", False)
        elif verdict(s) != ref:
            fail(s, f"verdict {verdict(s)!r}, reference {ref!r}", True)


def check_agreement(solves) -> None:
    """Reference for instances above the oracle's size: the verdict that a
    strict majority of the proven, model-checked solves agree on."""
    votes = Counter(verdict(s) for s in solves if s.failure is None and s.status in ("optimum", "unsat"))
    ranked = votes.most_common(2)
    if ranked and ranked[0][1] >= 2 and (len(ranked) == 1 or ranked[1][1] < ranked[0][1]):
        check_against(solves, ranked[0][0])
    else:
        for s in solves:
            fail(s, f"no agreement among {dict(votes)}", bool(votes))


# ---------------------------------------------------------- in-process solves


def solve_in_process(text: str, name: str, algo: str, seed: int, workers: int, tracer) -> Solve:
    from distmaxsat import formula, orchestration, sequential

    f = formula.parse_wcnf(text)
    solve = Solve(name, algo)
    if tracer is not None:
        tracer.solve = f"{name}/{algo}"
    first: list[float] = []

    def improved(_cost, _model):
        if not first:
            first.append(time.perf_counter())

    deadline = time.monotonic() + SOLVE_LIMIT_S
    trace_hash = None
    start = time.perf_counter()
    try:
        if algo == "linear":
            out = sequential.linear_su(formula.relax(f), on_improve=improved, seed=seed,
                                       deadline=deadline, clock=time.monotonic)
        elif algo == "msu3":
            out = sequential.msu3(f, seed=seed, deadline=deadline, clock=time.monotonic)
        else:
            out = orchestration.run_sim(f, algo, num_workers=workers, seed=seed, on_improve=improved,
                                        deadline=deadline, clock=time.monotonic)
    except TimeoutError:
        out = None
    solve.seconds = time.perf_counter() - start
    if first:
        solve.first_o = first[0] - start
    if out is None:
        solve.status = "unknown"
    elif algo in ("sss", "gp"):
        trace_hash = hashlib.sha256(b"\n".join(out.trace)).hexdigest()[:16]
        v = out.verdict
        solve.status = {"optimum": "optimum", "unsatisfiable": "unsat"}.get(v.status, "unknown")
        solve.cost, solve.model = v.cost, v.model
    elif isinstance(out, sequential.Optimum):
        solve.status, solve.cost, solve.model = "optimum", out.cost, out.model
    elif isinstance(out, sequential.HardUnsat):
        solve.status = "unsat"
    if tracer is not None:
        solve.fingerprint = [trace_hash, tracer.end_solve()]
    elif trace_hash is not None:
        solve.fingerprint = [trace_hash, None]
    return solve


# ------------------------------------------------------------- core speed


def speed_kernel(n: int = 3000) -> int:
    """Fixed pure-Python work of the kind the solvers' inner loops do: list
    indexing, dict updates, small generators.  It uses nothing of distmaxsat,
    so no change to the program can change its time; only the core's speed
    can."""
    table: dict[int, int] = {}
    rows = [[i, -i, i * 3] for i in range(64)]
    total = 0
    for i in range(n):
        row = rows[i & 63]
        key = (i * 7919) % 509
        table[key] = table.get(key, 0) + row[i % 3]
        total += sum(1 for x in row if x & 1)
    return total + len(table)


def kernel_s() -> float:
    """speed_kernel's time on the current core: the least of three runs, since
    a slow core slows all three and a brief preemption only one."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        speed_kernel()
        times.append(time.perf_counter() - start)
    return min(times)


class SpeedMeter:
    """Scales in-process solve times to one reference core speed.

    The cores of the target host change speed by up to 2x for seconds to
    minutes at a time, each core on its own, so a solve's wall time says as
    much about the host as about the program.  Between rounds, at least
    SPEED_EVERY_S of solving apart, the meter times speed_kernel on the
    solver's own core.  Every solve in between gets the scale SPEED_REF_S
    over the mean of the kernel times on either side of it; its seconds times
    that scale are what the reference core would have taken.

    Socket solves are not scaled: they are mostly process start, which
    follows the host's load rather than its core speed, and scaling them
    widened their spread between runs."""

    def __init__(self, probe=kernel_s):
        speed_kernel()  # first run pays for allocation, not speed
        self.probe = probe
        self.samples: list[float] = []
        self.last = self._probe()
        self.solved = 0.0
        self.pending: list[Solve] = []

    def _probe(self) -> float:
        self.samples.append(self.probe())
        return self.samples[-1]

    def add(self, solves) -> None:
        self.pending += solves
        self.solved += sum(s.seconds for s in solves)

    def tick(self, force: bool = False) -> None:
        if not self.pending or (not force and self.solved < SPEED_EVERY_S):
            return
        now = self._probe()
        for s in self.pending:
            s.scale = SPEED_REF_S / ((self.last + now) / 2)
        self.last, self.solved, self.pending = now, 0.0, []


# ------------------------------------------------------------ socket solves


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"  # lines reach the harness as they are printed
    return env


def _drain(stream, sink: list, stamp: bool) -> None:
    for line in stream:
        sink.append((time.perf_counter(), line) if stamp else line)
    stream.close()


def run_processes(cmds: list[list[str]], limit: float):
    """Start every command at once; the first one's stdout is read with a
    timestamp per line.  Kill all of them past `limit` seconds; reap all.
    Returns (start, stdout lines, stderr texts, exit codes, summed max RSS in
    KB, killed)."""
    start = time.perf_counter()
    procs, readers, lines = [], [], []
    errs: list[list[str]] = []
    env = child_env()
    try:
        for i, cmd in enumerate(cmds):
            p = subprocess.Popen(cmd, stdout=subprocess.PIPE if i == 0 else subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
            procs.append(p)
            errs.append([])
            readers.append(threading.Thread(target=_drain, args=(p.stderr, errs[-1], False)))
            if i == 0:
                readers.append(threading.Thread(target=_drain, args=(p.stdout, lines, True)))
        for t in readers:
            t.start()
        codes: dict[int, int] = {}
        rss = 0
        killed = False
        while len(codes) < len(procs):
            for p in procs:
                if p.pid in codes:
                    continue
                pid, status, usage = os.wait4(p.pid, os.WNOHANG)
                if pid:
                    codes[p.pid] = p.returncode = os.waitstatus_to_exitcode(status)
                    rss += usage.ru_maxrss
            if len(codes) < len(procs):
                if not killed and time.perf_counter() - start > limit + KILL_GRACE_S:
                    killed = True
                    for p in procs:
                        if p.pid not in codes:
                            p.kill()
                time.sleep(0.005)
    finally:
        for p in procs:  # only reached with live children when the harness itself failed
            if p.returncode is None:
                p.kill()
                p.wait()
        for t in readers:
            t.join()
    return start, lines, ["".join(e) for e in errs], [codes[p.pid] for p in procs], rss, killed


def cli_command(trace_dir: Path | None, solve_id: str, role: str) -> list[str]:
    if trace_dir is None:
        return [sys.executable, "-m", "distmaxsat.cli"]
    dump = trace_dir / f"{solve_id.replace('/', '-')}-{role}.json"
    return [sys.executable, str(LAUNCH), "cli", str(dump), solve_id, "--"]


def solve_with_cli(path: Path, name: str, algo: str, seed: int, trace_dir: Path | None) -> Solve:
    """linear/msu3 as one standalone CLI process; sss/gp as a master plus two
    worker processes over TCP on 127.0.0.1."""
    solve = Solve(name, algo)
    sid = f"{name}/{algo}"
    common = [str(path), "--algo", algo, "--seed", str(seed)]
    if algo in ("linear", "msu3"):
        cmds = [cli_command(trace_dir, sid, "cli") + common + ["--timeout", str(SOLVE_LIMIT_S)]]
    else:
        addr = f"127.0.0.1:{free_port()}"
        cmds = [cli_command(trace_dir, sid, "master") + common + [
            "--mode", "master", "--listen", addr, "--workers", "2", "--timeout", str(SOLVE_LIMIT_S)]]
        cmds += [cli_command(trace_dir, sid, f"w{k}") + common + ["--mode", "worker", "--connect", addr]
                 for k in (1, 2)]
    start, lines, errs, codes, rss, killed = run_processes(cmds, SOLVE_LIMIT_S)
    solve.exit_codes, solve.rss_kb = codes, rss
    solve.worker_stderr = errs[1:]
    end = None
    for stamp, line in lines:
        if line.startswith("c algo") and solve.header_s is None:
            solve.header_s = stamp - start
        elif line.startswith("o ") and solve.first_o is None:
            solve.first_o = stamp - start
        elif line.startswith("s "):
            end = stamp
            solve.status = {"s OPTIMUM FOUND": "optimum", "s UNSATISFIABLE": "unsat"}.get(line.strip(), "unknown")
        elif line.startswith("v "):
            lits = [int(t) for t in line.split()[1:]]
            solve.model = {abs(l): l > 0 for l in lits}
    o_lines = [int(line.split()[1]) for _, line in lines if line.startswith("o ")]
    solve.cost = o_lines[-1] if o_lines and solve.status == "optimum" else None
    solve.seconds = (end if end is not None else time.perf_counter()) - start
    if killed:
        solve.status = "killed"
        fail(solve, "killed by the harness", False)
    elif codes[0] not in (30, 20):
        fail(solve, f"exit code {codes[0]}: {errs[0].strip()[-300:]}", False)
    return solve


# ---------------------------------------------------------------- workloads


def draw_random(rng: random.Random, name: str, lo: int, hi: int, hard, soft):
    from instances import random_instance

    nv = rng.randint(lo, hi)
    return random_instance(name, rng.getrandbits(32), nv, hard(nv), soft(nv))


class Workload:
    """A seeded stream of rounds; each round lists (instance, algos) pairs."""

    name = ""
    trace_rounds = 1  # rounds in the fixed pass of a traced run
    batch = 1  # rounds drawn, and prepared, at a time
    tail_pct = 75  # see NOTES.md: chosen so that ten samples lie beyond it where a run allows
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def round(self, i: int):
        raise NotImplementedError

    def workers(self, i: int) -> int:
        return 2

    def prepare(self, rounds) -> None:
        """Compute references that need the instances up front."""

    def reference(self, inst):
        """The known optimum (or UNSAT), or None to take the solvers' agreement."""
        return inst.planted

    def check(self, items) -> None:
        """`items`: (instance, solves) pairs of one round."""
        for inst, solves in items:
            for s in solves:
                check_model(inst, s)
            ref = self.reference(inst)
            if ref is None:
                check_agreement(solves)
            else:
                check_against(solves, ref)


class SmallOracle(Workload):
    name = "small-oracle"
    trace_rounds = 120
    tail_pct = 95
    batch = 16

    def __init__(self, seed):
        super().__init__(seed)
        self.refs: dict[str, object] = {}

    def round(self, i):
        inst = draw_random(self.rng, f"r{i}", 12, 16, lambda n: round(2.2 * n), lambda n: 2 * n)
        return [(inst, ALGOS)]

    def workers(self, i: int) -> int:
        return 2 + i % 2

    def prepare(self, rounds) -> None:
        """Brute-force references in a child process, outside the timed region
        and outside this process's peak memory."""
        todo = [inst for r in rounds for inst, _ in r if inst.name not in self.refs]
        if not todo:
            return
        tmp = OUT / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        src, dst = tmp / f"refs-{os.getpid()}-in.json", tmp / f"refs-{os.getpid()}-out.json"
        src.write_text(json.dumps([{"name": i.name, "num_vars": i.num_vars, "hard": i.hard, "soft": i.soft}
                                   for i in todo]))
        subprocess.run([sys.executable, str(LAUNCH), "refs", str(src), str(dst)],
                       env=child_env(), cwd=ROOT, check=True, timeout=170)
        self.refs.update(json.loads(dst.read_text()))
        src.unlink()
        dst.unlink()

    def reference(self, inst):
        return self.refs[inst.name]


class MidMixed(Workload):
    name = "mid-mixed"
    trace_rounds = 8
    tail_pct = 90

    def round(self, i):
        from instances import pigeonhole

        rand = draw_random(self.rng, f"r{i}", 60, 70, lambda n: 75, lambda n: 65)
        blocks = pigeonhole(f"php{i}", self.rng, 2 + i // 2 % 2, 5)  # 2, 2, 3, 3: both parts get both
        singles = [pigeonhole(f"php1-{i}{tag}", self.rng, 1, 4) for tag in "ab"]
        return [(rand, ("linear", "msu3", "sss")), (blocks, ("linear", "msu3", "sss"))] + [
            (single, ("gp",)) for single in singles]


class Socket2w(Workload):
    name = "socket-2w"
    trace_rounds = 4
    in_process = False

    def round(self, i):
        inst = draw_random(self.rng, f"r{i}", 28, 32, lambda n: round(2.3 * n), lambda n: 2 * n)
        return [(inst, ALGOS)]


WORKLOADS = {w.name: w for w in (SmallOracle, MidMixed, Socket2w)}


# ------------------------------------------------------------------- passes


@dataclass
class Pass:
    solves: list = field(default_factory=list)
    measured: float = 0.0  # summed solve time
    wall: float = 0.0  # whole pass, set-up of references excluded
    rounds: int = 0


def run_pass(w: Workload, run_dir: Path, rounds_fixed: int | None, seconds: float,
             tracer=None, trace_dir: Path | None = None, part: int = 0, parts: int = 1,
             meter: SpeedMeter | None = None) -> Pass:
    """Solve round after round until `seconds` of solving are measured, or
    exactly `rounds_fixed` rounds when that is given.  With `parts` > 1 every
    round is still drawn, in order, but only every `parts`-th one from `part`
    on is solved here.  A `meter` sets every solve's speed scale."""
    result = Pass()
    queue: list = []
    drawn = 0
    while result.rounds < rounds_fixed if rounds_fixed is not None else result.measured < seconds:
        if not queue:
            block = [(drawn + k, w.round(drawn + k)) for k in range(w.batch * parts)]
            drawn += len(block)
            queue = [(i, r) for i, r in block if i % parts == part]
            w.prepare([r for _, r in queue])
        i, rnd = queue.pop(0)
        seed = (w.seed * 7919 + i) % 100003
        t0 = time.perf_counter()
        items = []
        for inst, algos in rnd:
            text = inst.text
            if not w.in_process:
                path = run_dir / f"{inst.name}.wcnf"
                path.write_text(text)
            solves = []
            for algo in algos:
                if w.in_process:
                    solves.append(solve_in_process(text, inst.name, algo, seed, w.workers(i), tracer))
                else:
                    solves.append(solve_with_cli(path, inst.name, algo, seed, trace_dir))
                result.measured += solves[-1].seconds
            items.append((inst, solves))
        result.wall += time.perf_counter() - t0
        w.check(items)
        for _, solves in items:
            for solve in solves:
                solve.model = None  # checked; keep the benchmark's own memory flat
            result.solves.extend(solves)
            if meter is not None:
                meter.add(solves)
        if meter is not None:
            meter.tick()
        result.rounds += 1
    if meter is not None:
        meter.tick(force=True)
    return result


def measure_part(workload: str, seed: int, seconds: float, part: int, parts: int, out: str) -> None:
    """One of the concurrent in-process solvers of an untraced run: solve
    this part's rounds and write the solves and this process's peak RSS."""
    w = WORKLOADS[workload](seed)
    meter = SpeedMeter()
    p = run_pass(w, Path(out).parent, None, seconds, part=part, parts=parts, meter=meter)
    Path(out).write_text(json.dumps({
        "solves": [s.report() for s in p.solves], "rounds": p.rounds, "measured": p.measured,
        "wall": p.wall, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "speed_samples": meter.samples}))


def run_parts(w: Workload, run_dir: Path, seconds: float, info: dict) -> tuple[Pass, float]:
    """Run SOLVERS in-process solver processes at once, one per core, each
    measuring `seconds` of solving on its share of the rounds."""
    outs = [run_dir / f"part{k}.json" for k in range(SOLVERS)]
    procs = [subprocess.Popen([sys.executable, str(LAUNCH), "measure", w.name, str(w.seed), str(seconds),
                               str(k), str(SOLVERS), str(out)], env=child_env(), cwd=ROOT)
             for k, out in enumerate(outs)]
    codes = [p.wait() for p in procs]
    if any(codes):
        raise RuntimeError(f"solver processes exited with {codes}")
    merged, rss_kb, speed = Pass(), 0, []
    for out in outs:
        d = json.loads(out.read_text())
        speed += d["speed_samples"]
        merged.solves += [Solve(**s) for s in d["solves"]]
        merged.rounds += d["rounds"]
        merged.measured += d["measured"]
        merged.wall = max(merged.wall, d["wall"])
        rss_kb = max(rss_kb, d["rss_kb"])
    info.update({"speed_kernel_s.min": min(speed), "speed_kernel_s.p50": statistics.median(speed),
                 "speed_kernel_s.max": max(speed), "speed_kernel.samples": len(speed)})
    return merged, rss_kb / 1024.0


# ------------------------------------------------------------------ metrics


def percentile(values, pct: float) -> float:
    v = sorted(values)
    rank = (len(v) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def tail_pct(n: int) -> int:
    """Highest of p99/p95/p90/p75 with at least ten of `n` samples beyond it;
    p50 when none has."""
    return next((p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= 10), 50)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def setup_probe(w: Workload, run_dir: Path) -> list[float]:
    """From spawning a fresh interpreter until `import distmaxsat` and
    `parse_wcnf` of the workload's first instance are done.

    Run it right after the timed solving.  Process start needs wake-ups
    across cores, and on the target VM a core that has been idle for a few
    seconds wakes slowly: the same probe takes 0.24 s after idling and
    0.13-0.18 s after both cores were busy."""
    path = run_dir / "probe.wcnf"
    path.write_text(type(w)(w.seed).round(0)[0][0].text)
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        p = subprocess.Popen([sys.executable, str(LAUNCH), "probe", str(path)], stdout=subprocess.PIPE,
                             text=True, env=child_env(), cwd=ROOT)
        line = p.stdout.readline()
        times.append(time.perf_counter() - start)
        p.stdout.close()
        if p.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return times


def end_to_end(w: Workload, p: Pass, setup: list[float], rss_mb: float, info: dict) -> dict:
    m = {"setup_s": (statistics.median(setup), "s")}
    for algo in ALGOS:
        times = [s.seconds * s.scale for s in p.solves if s.algo == algo]
        if w.in_process:
            info[f"{algo}.wall_s.p50"] = statistics.median(s.seconds for s in p.solves if s.algo == algo)
        info[f"{algo}.samples"] = len(times)
        tail = percentile(times, w.tail_pct) if times else 0.0
        info[f"{algo}.beyond_tail"] = sum(t > tail for t in times)
        m[f"{algo}.solve_s.p50"] = (statistics.median(times) if times else 0.0, "s")
        m[f"{algo}.solve_s.tail"] = (tail, "s")
    for algo in ("sss", "gp"):
        firsts = [s.first_o * s.scale for s in p.solves if s.algo == algo and s.first_o is not None]
        info[f"{algo}.first_o.samples"] = len(firsts)
        m[f"{algo}.first_o_s.p50"] = (statistics.median(firsts) if firsts else 0.0, "s")
    proven = sum(1 for s in p.solves if s.failure is None)
    m["solved_per_s"] = (ratio(proven, sum(s.seconds * s.scale for s in p.solves)), "1/s")
    m["peak_rss_mb"] = (rss_mb, "MB")
    info["tail_percentile"] = w.tail_pct
    return m


def worker_crashes(solves) -> tuple[int, int]:
    workers = [(code, err) for s in solves if s.algo in ("sss", "gp") for code, err in
               zip(s.exit_codes[1:], s.worker_stderr)]
    return sum(1 for code, _ in workers if code != 0), len(workers)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "distmaxsat").glob("*.py"))


def per_layer(plain: Pass, traced: Pass, counters, samples, spans) -> dict:
    from tracer import self_times

    c = lambda k: counters.get(k, 0.0)  # noqa: E731
    m = {}
    for key, unit in (("engine.solve.calls", "count"), ("engine.solve.s", "s"), ("engine.conflicts", "count"),
                      ("engine.restarts", "count"), ("engine.vars_at_solve.max", "count"),
                      ("engine.clauses_at_solve.max", "count"), ("engine.propagate_under.calls", "count"),
                      ("engine.propagate_under.s", "s"), ("cardinality.encode.calls", "count"),
                      ("cardinality.encode.s", "s"), ("cardinality.aux_vars", "count"),
                      ("cardinality.clauses", "count"), ("sequential.msu3.cores", "count"),
                      ("lookahead.generate.calls", "count"), ("lookahead.generate.s", "s"),
                      ("lookahead.nodes", "count"), ("lookahead.conflicts", "count"), ("lookahead.paths", "count"),
                      ("lookahead.choose_variable.s", "s"), ("lookahead.polarity_counts.s", "s"),
                      ("bounds.updates", "count"), ("orchestration.worker_task.count", "count"),
                      ("orchestration.aborts", "count"), ("orchestration.initial_ub.s", "s"),
                      ("transport.messages", "count"), ("transport.bytes", "B"), ("transport.encode.s", "s"),
                      ("transport.decode.s", "s"), ("transport.sim_deliveries", "count"),
                      ("transport.socket.polls", "count"), ("formula.parse.s", "s"),
                      ("formula.cost.calls", "count"), ("formula.cost.s", "s")):
        m[key] = (c(key), unit)
    m["engine.conflicts_per_s"] = (ratio(c("engine.conflicts"), c("engine.solve.s")), "1/s")
    m["sequential.sat_calls_per_solve"] = (ratio(c("sequential.sat_calls"), c("sequential.solves")), "count")
    m["lookahead.dispatch_share"] = (ratio(c("lookahead.paths_dispatched"), c("lookahead.paths")), "ratio")
    m["bounds.stale_share"] = (ratio(c("bounds.calls") - c("bounds.updates"), c("bounds.calls")), "ratio")
    msgs = samples.get("master_msg", [])
    m["orchestration.master_msg.count"] = (len(msgs), "count")
    m["orchestration.master_msg.s.p50"] = (statistics.median(msgs) if msgs else 0.0, "s")
    m["orchestration.master_msg.s.tail"] = (percentile(msgs, tail_pct(len(msgs))) if msgs else 0.0, "s")
    m["orchestration.master_busy.s"] = (sum(msgs), "s")
    busy: dict = {}
    for solve, worker, dur in samples.get("worker_busy", []):
        busy.setdefault(solve, {}).setdefault(worker, 0.0)
        busy[solve][worker] += dur
    m["orchestration.worker_busy.max_s"] = (sum(max(b.values()) for b in busy.values()), "s")
    m["orchestration.gp_early_stop_share"] = (
        ratio(c("orchestration.gp_early_stops"), c("orchestration.gp_solves")), "ratio")
    m["transport.socket.empty_poll_share"] = (ratio(c("transport.socket.empty_polls"),
                                                    c("transport.socket.polls")), "ratio")
    m["formula.parse.mb_per_s"] = (ratio(c("formula.parse.bytes") / 1e6, c("formula.parse.s")), "MB/s")
    headers = [s.header_s for s in plain.solves if s.header_s is not None and s.algo in ("sss", "gp")]
    m["cli.header_s"] = (statistics.median(headers) if headers else 0.0, "s")
    crashed, workers = worker_crashes(plain.solves)
    m["cli.worker_crash_share"] = (ratio(crashed, workers), "ratio")
    for layer, secs in self_times(spans).items():
        m[f"self_s.{layer}"] = (secs, "s")
    m["failed_share"] = (ratio(sum(s.failure is not None for s in plain.solves), len(plain.solves)), "ratio")
    m["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    m["trace.overhead_share"] = (ratio(traced.wall - plain.wall, plain.wall), "ratio")
    m["trace.spans"] = (len(spans), "count")
    m["src.lines"] = (src_lines(), "lines")
    return m


# --------------------------------------------------------------------- main


def run_untraced(w: Workload, run_dir: Path, seconds: float, info: dict):
    if w.in_process:
        p, rss_mb = run_parts(w, run_dir, seconds, info)
        setup = setup_probe(w, run_dir)
    else:
        p = run_pass(w, run_dir, None, seconds)
        setup = [s.header_s for s in p.solves if s.header_s is not None and s.algo in ("sss", "gp")]
        rss_mb = max(s.rss_kb for s in p.solves) / 1024.0
    crashed, workers = worker_crashes(p.solves)
    info.update(setup_samples=setup, worker_crashes=f"{crashed}/{workers}", rounds=p.rounds, measured_s=p.measured)
    return p.solves, end_to_end(w, p, setup, rss_mb, info)


def run_traced(w: Workload, run_dir: Path, info: dict):
    """The same fixed pass twice: untraced, then traced.  In process, the
    untraced pass keeps only the engine registry, so both passes yield
    determinism fingerprints that must match exactly."""
    from tracer import Tracer, merge

    run_pass(type(w)(w.seed + 1), run_dir, 2, 0.0)  # warm-up, so neither pass pays first-use costs
    if w.in_process:
        registry = Tracer(record_spans=False)
        registry.install_registry()
        try:
            plain = run_pass(w, run_dir, w.trace_rounds, 0.0, tracer=registry)
        finally:
            registry.restore()
        tracer = Tracer()
        tracer.install_registry()
        tracer.install()
        try:
            traced = run_pass(type(w)(w.seed), run_dir, w.trace_rounds, 0.0, tracer=tracer)
        finally:
            tracer.restore()
        dumps = [{"counters": tracer.counters, "samples": tracer.samples, "spans": tracer.spans,
                  "sites": tracer.sites}]
        a = [(s.instance, s.algo, s.fingerprint) for s in plain.solves]
        b = [(s.instance, s.algo, s.fingerprint) for s in traced.solves]
        info["fingerprints_repeat"] = a == b
        info["fingerprint_digest"] = hashlib.sha256(json.dumps(a).encode()).hexdigest()[:16]
    else:
        plain = run_pass(w, run_dir, w.trace_rounds, 0.0)
        dump_dir = run_dir / "dumps"
        dump_dir.mkdir()
        traced = run_pass(type(w)(w.seed), run_dir, w.trace_rounds, 0.0, trace_dir=dump_dir)
        dumps = [json.loads(p.read_text()) for p in sorted(dump_dir.iterdir())]
    counters, samples, spans = merge(dumps)
    info["patched_sites"] = sorted({site for d in dumps for site in d["sites"]})
    spans_path = run_dir / "spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    info.update(spans_file=str(spans_path.relative_to(ROOT)), rounds=plain.rounds,
                untraced_wall_s=plain.wall, traced_wall_s=traced.wall)
    return plain.solves + traced.solves, per_layer(plain, traced, counters, samples, spans)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "distmaxsat" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    w = WORKLOADS[args.workload](args.seed)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    info: dict = {"workload": w.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        solves, metrics = run_traced(w, run_dir, info)
    else:
        solves, metrics = run_untraced(w, run_dir, args.seconds, info)
    failed = [s for s in solves if s.failure is not None]
    correct = not any(s.wrong for s in solves) and info.get("fingerprints_repeat", True)
    info.update(src_lines=src_lines(), failures=[s.report() for s in failed])
    (run_dir / "result.json").write_text(json.dumps({"info": info, "solves": [s.report() for s in solves]},
                                                    indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({k: v for k, v in info.items() if k not in ("failures", "patched_sites", "setup_samples")}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
