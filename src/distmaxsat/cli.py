"""Command-line entry point.

Standalone sequential solving, deterministic local simulation of either
distributed strategy, and real master/worker modes over TCP.  Output follows
MaxSAT evaluation conventions: "c" comments, an "o <cost>" line per
improvement, a final "s" status line and a "v" model line.

Exit codes: 30 optimum found, 20 unsatisfiable, 10 timed out with a model in
hand, 0 timed out or unknown, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import selectors
import sys
import time

from .formula import WcnfError, cost, model_literals, parse_wcnf
from .lookahead import dump_paths
from .orchestration import GpMaster, SssMaster, Verdict, WorkerNode, run_sim
from .sequential import HardUnsat, Optimum, linear_su, msu3
from .formula import relax
from .transport import MessageError, connect, listen

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
                   help="algorithm; a worker takes its role from the master instead")
    p.add_argument("--mode", choices=("standalone", "master", "worker", "sim"), default="standalone")
    p.add_argument("--workers", type=int, default=4, help="worker count (sim and master modes)")
    p.add_argument("--listen", metavar="HOST:PORT", help="master mode listen address")
    p.add_argument("--connect", metavar="HOST:PORT", help="worker mode master address")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=None, help="wall-clock budget in seconds")
    p.add_argument("--dump-paths", metavar="FILE", help="write generated guiding paths (gp only)")
    return p


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
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
    outcome = run_sim(
        f, args.algo, num_workers=args.workers, seed=args.seed,
        on_improve=reporter.improve, deadline=deadline, clock=time.monotonic,
    )
    if args.dump_paths and args.algo == "gp" and hasattr(outcome.master, "generated_paths"):
        with open(args.dump_paths, "w", encoding="utf-8") as fh:
            fh.write(dump_paths(outcome.master.generated_paths))
    if outcome.verdict.status == "unknown":
        print("c timeout", file=reporter.out)
        return reporter.finish("satisfiable" if reporter.model is not None else "unknown")
    return reporter.finish(outcome.verdict.status)


def _run_master(args, f, reporter, deadline) -> int:
    host, port = _parse_addr(args.listen)
    try:
        channels, server = listen(host, port, expected=args.workers, deadline=deadline)
    except TimeoutError:
        print("c timeout", file=reporter.out)
        return reporter.finish("unknown")
    ids = [f"w{i}" for i in range(1, len(channels) + 1)]
    by_id = dict(zip(ids, channels))
    # A broken link is handled between master calls, never inside one.
    lost: list[str] = []

    def send(wid, msg):
        try:
            by_id[wid].send(msg)
        except (BrokenPipeError, ConnectionResetError):
            lost.append(wid)

    master_cls = SssMaster if args.algo == "sss" else GpMaster
    master = master_cls(f, ids, send=send, seed=args.seed)
    master.on_improve = reporter.improve

    sel = selectors.DefaultSelector()
    for wid, chan in by_id.items():
        sel.register(chan.sock, selectors.EVENT_READ, wid)
    try:
        while not master.finished:
            while lost:
                wid = lost.pop(0)
                chan = by_id.pop(wid, None)
                if chan is not None:
                    print(f"c worker {wid} lost", file=reporter.out)
                    sel.unregister(chan.sock)
                    master.on_worker_lost(wid)
            if master.finished:
                break
            if not by_id or (deadline is not None and time.monotonic() > deadline):
                print("c timeout" if by_id else "c no worker left", file=reporter.out)
                return reporter.finish("satisfiable" if reporter.model is not None else "unknown")
            for key, _ in sel.select(timeout=0.2):
                wid = key.data
                chan = by_id[wid]
                while wid not in lost:
                    try:
                        msg = chan.poll()
                    except MessageError as exc:
                        print(f"c dropping {wid}: {exc}", file=sys.stderr)
                        msg = None
                    except (EOFError, ConnectionResetError):
                        lost.append(wid)
                        break
                    if msg is None:
                        break
                    master.on_message(wid, msg)
                    if master.finished:
                        break
    finally:
        for chan in channels:
            chan.close()
        server.close()
    verdict = master.verdict or Verdict("unknown")
    return reporter.finish(verdict.status)


def _run_worker(args, f) -> int:
    host, port = _parse_addr(args.connect)
    chan = connect(host, port)
    worker = WorkerNode("w0", f, send=chan.send, seed=args.seed)
    try:
        worker.hello()
        while not worker.done:
            msg = chan.recv(timeout=None)
            if msg is None:
                break
            worker.on_message(msg)
    except (BrokenPipeError, ConnectionResetError):
        pass  # the master has closed the connection: the run is over
    finally:
        chan.close()
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.algo in ("sss", "gp") and args.mode == "standalone":
        parser.print_usage(sys.stderr)
        print(f"error: --algo {args.algo} needs --mode sim, master or worker", file=sys.stderr)
        return EXIT_USAGE
    # A worker takes its role from the master's hello, so --algo does not
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
        # The master's hello decides the role, so a worker names no algo.
        print(f"c mode worker seed {args.seed}", file=sys.stdout)
        return _run_worker(args, f)
    print(f"c algo {args.algo} mode {args.mode} seed {args.seed}", file=sys.stdout)
    if args.mode == "master":
        return _run_master(args, f, reporter, deadline)
    if args.mode == "sim":
        return _run_sim(args, f, reporter, deadline)
    return _run_standalone(args, f, reporter, deadline)


if __name__ == "__main__":
    sys.exit(main())
