"""Command-line entry point.

Standalone sequential solving, deterministic local simulation of either
distributed strategy, and real master/worker modes over TCP.  Output follows
MaxSAT evaluation conventions: "c" comments, an "o <cost>" line per
improvement, a final "s" status line and a "v" model line.

Exit codes: 30 optimum found, 20 unsatisfiable, 10 timed out with a model in
hand, 0 timed out or unknown, 1 usage, input or connection errors.

A socket master answers before any worker is there: its first "o" line is
the model of the hard clauses, or it prints "s UNSATISFIABLE" when there is
none.  It begins with the workers that have connected and said hello, and
later ones join as helpers.  After printing its result it keeps listening
until all `--workers` have connected, or `--timeout` passes, and answers
each with terminate.

Each mode imports only the modules it runs: every process pays to load them.
"""

from __future__ import annotations

import argparse
import sys
import time

from .formula import WcnfError, cost, model_literals, parse_wcnf, relax
from .sequential import HardUnsat, Optimum, linear_su, msu3

EXIT_OPTIMUM = 30
EXIT_UNSAT = 20
EXIT_SAT_INCOMPLETE = 10
EXIT_UNKNOWN = 0
EXIT_USAGE = 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="distmaxsat",
        description="Partial MaxSAT solver: sequential, simulated-distributed, or socket-distributed.",
    )
    p.add_argument("instance", help="DIMACS WCNF instance path")
    p.add_argument("--algo", choices=("linear", "msu3", "sss", "gp"), default="linear",
                   help="algorithm; a worker runs whatever tasks its master assigns instead")
    p.add_argument("--mode", choices=("standalone", "master", "worker", "sim"), default="standalone")
    p.add_argument("--workers", type=int, default=4, help="worker count (sim and master modes)")
    p.add_argument("--listen", metavar="HOST:PORT", help="master mode listen address")
    p.add_argument("--connect", metavar="HOST:PORT", help="worker mode master address")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=None, help="wall-clock budget in seconds")
    p.add_argument("--dump-paths", metavar="FILE", help="write generated guiding paths (gp only)")
    return p


def _parse_addr(text: str) -> tuple[str, int] | None:
    """HOST:PORT as (host, port), the host 127.0.0.1 when left out; None
    when the port is not a number from 0 to 65535."""
    host, _, port = text.rpartition(":")
    if not (port.isdecimal() and int(port) <= 65535):
        return None
    return host or "127.0.0.1", int(port)


class Reporter:
    """Tracks improvements and owns all result printing."""

    def __init__(self, f, out):
        self.f = f
        self.out = out
        self.costs: list[int] = []
        self.model = None

    def improve(self, found: int, model) -> None:
        if self.costs and found >= self.costs[-1]:
            return
        self.costs.append(found)
        self.model = model
        print(f"o {found}", file=self.out, flush=True)

    def finish(self, status: str) -> int:
        if status == "unsatisfiable":
            print("s UNSATISFIABLE", file=self.out)
            return EXIT_UNSAT
        if status in ("optimum", "satisfiable") and self.model is not None:
            # Validate before printing: the model must satisfy the hard
            # clauses and cost exactly the last reported "o" value.
            recomputed = cost(self.f, self.model)
            if not self.costs or recomputed != self.costs[-1]:
                print(f"o {recomputed}", file=self.out)
            line = " ".join(str(l) for l in model_literals(self.f, self.model))
            if status == "optimum":
                print("s OPTIMUM FOUND", file=self.out)
                print(f"v {line}", file=self.out)
                return EXIT_OPTIMUM
            print("s SATISFIABLE", file=self.out)
            print(f"v {line}", file=self.out)
            return EXIT_SAT_INCOMPLETE
        print("s UNKNOWN", file=self.out)
        return EXIT_UNKNOWN


def _run_standalone(args, f, reporter, deadline) -> int:
    try:
        if args.algo == "linear":
            outcome = linear_su(
                relax(f), on_improve=reporter.improve, seed=args.seed,
                deadline=deadline, clock=time.monotonic,
            )
        else:
            def lb(lam):
                print(f"c lower bound {lam}", file=reporter.out, flush=True)

            outcome = msu3(
                f, on_lower_bound=lb, seed=args.seed, deadline=deadline, clock=time.monotonic,
            )
    except TimeoutError:
        print("c timeout", file=reporter.out)
        return reporter.finish("satisfiable" if reporter.model is not None else "unknown")
    if isinstance(outcome, HardUnsat):
        return reporter.finish("unsatisfiable")
    assert isinstance(outcome, Optimum)
    reporter.improve(outcome.cost, outcome.model)
    return reporter.finish("optimum")


def _run_sim(args, f, reporter, deadline) -> int:
    from .orchestration import run_sim
    outcome = run_sim(
        f, args.algo, num_workers=args.workers, seed=args.seed,
        on_improve=reporter.improve, deadline=deadline, clock=time.monotonic,
    )
    if args.dump_paths and args.algo == "gp":
        from .lookahead import dump_paths
        with open(args.dump_paths, "w", encoding="utf-8") as fh:
            fh.write(dump_paths(outcome.master.generated_paths))
    if outcome.verdict.status == "unknown":
        print("c timeout", file=reporter.out)
        return reporter.finish("satisfiable" if reporter.model is not None else "unknown")
    return reporter.finish(outcome.verdict.status)


def _run_master(args, f, reporter, addr, deadline) -> int:
    import selectors
    import socket
    from .orchestration import GpMaster, SssMaster
    from .transport import MessageError, accept
    try:
        server = socket.create_server(addr)
    except OSError as exc:
        print(f"error: cannot listen on {args.listen}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    by_id = {}  # worker id -> channel, in accept order
    # A broken link is handled between master calls, never inside one.
    lost: list[str] = []

    def send(wid, msg):
        try:
            by_id[wid].send(msg)
        except (BrokenPipeError, ConnectionResetError):
            lost.append(wid)

    master_cls = SssMaster if args.algo == "sss" else GpMaster
    master = master_cls(f, [], send=send, seed=args.seed, size=args.workers)
    master.on_improve = reporter.improve
    sel = selectors.DefaultSelector()
    sel.register(server, selectors.EVENT_READ)
    joined = 0
    code = None  # set once the result is printed
    try:
        # The first model, or the proof that there is none, comes before any
        # worker: workers join as they connect.
        if deadline is None or time.monotonic() <= deadline:
            master.start()
        while True:
            while lost:
                wid = lost.pop(0)
                chan = by_id.pop(wid, None)
                if chan is not None:
                    if code is None:
                        print(f"c worker {wid} lost", file=reporter.out)
                    sel.unregister(chan.sock)
                    chan.close()
                    master.on_worker_lost(wid)
            timed_out = deadline is not None and time.monotonic() > deadline
            if code is None:
                if master.finished:
                    code = reporter.finish(master.verdict.status)
                    reporter.out.flush()
                elif timed_out or (joined == args.workers and not by_id):
                    print("c timeout" if timed_out else "c no worker left", file=reporter.out)
                    return reporter.finish("satisfiable" if reporter.model is not None else "unknown")
            # After the result, wait until every worker has connected and
            # said hello, so that each one ends on its terminate.
            if code is not None and (timed_out or (joined == args.workers and master.registered >= set(by_id))):
                break
            wait = None if deadline is None else max(deadline - time.monotonic(), 0.0)
            for key, _ in sel.select(timeout=wait):
                if key.fileobj is server:
                    joined += 1
                    wid = f"w{joined}"
                    by_id[wid] = chan = accept(server)
                    sel.register(chan.sock, selectors.EVENT_READ, wid)
                    master.join(wid)
                    if joined == args.workers:
                        sel.unregister(server)
                        server.close()
                    continue
                wid = key.data
                chan = by_id[wid]
                while wid not in lost:
                    try:
                        msg = chan.poll()
                    except MessageError as exc:  # the line is dropped, the link kept
                        print(f"c dropping a line from {wid}: {exc}", file=sys.stderr)
                        continue
                    except (EOFError, ConnectionResetError):
                        lost.append(wid)
                        break
                    if msg is None:
                        break
                    master.on_message(wid, msg)
    finally:
        for chan in by_id.values():
            chan.close()
        server.close()
        sel.close()
    return code


def _run_worker(f, addr, seed, deadline) -> int:
    from .orchestration import WorkerNode
    from .transport import MessageError, connect
    chan = None
    try:
        # Past the deadline the connect, a task's next SAT call or the wait
        # for a message raises TimeoutError.
        chan = connect(*addr, deadline=deadline)
        worker = WorkerNode("w0", f, send=chan.send, seed=seed, deadline=deadline, clock=time.monotonic)
        worker.hello()
        while not worker.done:
            msg = chan.recv(timeout=None if deadline is None else max(deadline - time.monotonic(), 1e-3))
            if msg is None:
                break
            worker.on_message(msg)
    except TimeoutError:
        print("c timeout", file=sys.stdout)
    except (BrokenPipeError, ConnectionResetError):
        pass  # the master has closed the connection: the run is over
    except (OSError, MessageError) as exc:  # the master was never reached, the link failed, or a line was bad
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if chan is not None:
            chan.close()
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.algo in ("sss", "gp") and args.mode == "standalone":
        parser.print_usage(sys.stderr)
        print(f"error: --algo {args.algo} needs --mode sim, master or worker", file=sys.stderr)
        return EXIT_USAGE
    # A worker runs whatever tasks its master assigns, so --algo does not
    # apply to it.
    if args.algo in ("linear", "msu3") and args.mode in ("sim", "master"):
        parser.print_usage(sys.stderr)
        print(f"error: --algo {args.algo} runs in --mode standalone only", file=sys.stderr)
        return EXIT_USAGE
    if args.mode == "master" and not args.listen:
        parser.print_usage(sys.stderr)
        print("error: master mode needs --listen", file=sys.stderr)
        return EXIT_USAGE
    if args.mode == "worker" and not args.connect:
        parser.print_usage(sys.stderr)
        print("error: worker mode needs --connect", file=sys.stderr)
        return EXIT_USAGE
    if args.workers < 1:
        parser.print_usage(sys.stderr)
        print("error: --workers must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    addr = None
    if args.mode in ("master", "worker"):
        flag, text = ("--listen", args.listen) if args.mode == "master" else ("--connect", args.connect)
        addr = _parse_addr(text)
        if addr is None:
            print(f"error: {flag} {text}: expected HOST:PORT, PORT a number from 0 to 65535", file=sys.stderr)
            return EXIT_USAGE

    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            text = fh.read()
        f = parse_wcnf(text)
    except OSError as exc:
        print(f"error: cannot read instance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WcnfError as exc:
        print(f"error: bad instance: {exc}", file=sys.stderr)
        return EXIT_USAGE

    deadline = time.monotonic() + args.timeout if args.timeout else None
    reporter = Reporter(f, sys.stdout)
    print(f"c instance {args.instance}: {f.num_vars} vars, {len(f.hard)} hard, {len(f.soft)} soft", file=sys.stdout)
    if args.mode == "worker":
        # The master's tasks decide what a worker runs, so it names no algo.
        print(f"c mode worker seed {args.seed}", file=sys.stdout)
        return _run_worker(f, addr, args.seed, deadline)
    print(f"c algo {args.algo} mode {args.mode} seed {args.seed}", file=sys.stdout)
    if args.mode == "master":
        return _run_master(args, f, reporter, addr, deadline)
    if args.mode == "sim":
        return _run_sim(args, f, reporter, deadline)
    return _run_standalone(args, f, reporter, deadline)


if __name__ == "__main__":
    sys.exit(main())
