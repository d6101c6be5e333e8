"""Child-process entry points of the benchmark.

    python3 bench/launch.py probe INSTANCE
        Import distmaxsat, parse INSTANCE, print "ready" (set-up time probe).
    python3 bench/launch.py refs INSTANCES_JSON OUT_JSON
        Brute-force reference optimum of every instance in INSTANCES_JSON.
    python3 bench/launch.py measure WORKLOAD SEED SECONDS PART PARTS OUT_JSON
        Solve rounds PART, PART+PARTS, ... of the workload for SECONDS of
        solving and write the solves to OUT_JSON (see run.measure_part).
    python3 bench/launch.py cli DUMP_JSON SOLVE_ID -- CLI_ARGS...
        Install the tracer, run `distmaxsat.cli.main(CLI_ARGS)`, and write the
        spans and counters to DUMP_JSON even when the CLI raises.

The checkout's `src/` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def probe(path: str) -> int:
    import distmaxsat

    with open(path, encoding="utf-8") as fh:
        distmaxsat.parse_wcnf(fh.read())
    print("ready", flush=True)
    return 0


def refs(src: str, dst: str) -> int:
    from instances import Instance, brute_force_reference

    with open(src, encoding="utf-8") as fh:
        items = json.load(fh)
    out = {}
    for item in items:
        inst = Instance(item["name"], item["num_vars"],
                        tuple(map(tuple, item["hard"])), tuple(map(tuple, item["soft"])))
        out[inst.name] = brute_force_reference(inst)
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def traced_cli(dump: str, solve_id: str, argv: list[str]) -> int:
    from distmaxsat import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.solve = solve_id
    tracer.install_registry()
    tracer.install()
    main = tracer.wrap("cli.main", cli.main)
    try:
        return main(argv)
    finally:
        tracer.end_solve()
        tracer.dump(dump)


def run(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "probe":
        return probe(argv[1])
    if len(argv) == 3 and argv[0] == "refs":
        return refs(argv[1], argv[2])
    if len(argv) == 7 and argv[0] == "measure":
        import run

        run.measure_part(argv[1], int(argv[2]), float(argv[3]), int(argv[4]), int(argv[5]), argv[6])
        return 0
    if len(argv) >= 4 and argv[0] == "cli" and argv[3] == "--":
        return traced_cli(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
