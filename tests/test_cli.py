import json
import os
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from distmaxsat.cli import main
from distmaxsat.formula import cost, make_formula, parse_wcnf, serialize_wcnf
from distmaxsat.oracle import brute_force, gen_random

from conftest import hard_pigeonhole


EXAMPLE = "p wcnf 2 3 3\n3 1 2 0\n1 -1 0\n1 -2 0\n"
UNSAT = "p wcnf 1 3 9\n9 1 0\n9 -1 0\n1 1 0\n"


@pytest.fixture
def instance(tmp_path):
    def write(text, name="inst.wcnf"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_standalone_linear_example(instance, capsys):
    code, out, _ = run_cli([instance(EXAMPLE), "--algo", "linear"], capsys)
    assert code == 30
    lines = out.splitlines()
    assert "o 1" in lines
    assert "s OPTIMUM FOUND" in lines
    v = next(l for l in lines if l.startswith("v "))
    assert set(v.split()[1:]) <= {"1", "-1", "2", "-2"}


def test_standalone_msu3_example(instance, capsys):
    code, out, _ = run_cli([instance(EXAMPLE), "--algo", "msu3"], capsys)
    assert code == 30
    assert "s OPTIMUM FOUND" in out


def test_unsat_instance(instance, capsys):
    for algo, mode in (("linear", "standalone"), ("sss", "sim"), ("gp", "sim")):
        code, out, _ = run_cli([instance(UNSAT), "--algo", algo, "--mode", mode], capsys)
        assert code == 20
        assert "s UNSATISFIABLE" in out


def test_sim_modes_match_oracle(instance, capsys):
    f = gen_random(41, num_vars=7, num_hard=6, num_soft=7, clause_len=3)
    path = instance(serialize_wcnf(f))
    expected = brute_force(f)
    for algo in ("sss", "gp"):
        code, out, _ = run_cli(
            [path, "--algo", algo, "--mode", "sim", "--workers", "4", "--seed", "7"], capsys
        )
        assert code == 30
        final_o = [int(l.split()[1]) for l in out.splitlines() if l.startswith("o ")][-1]
        assert final_o == expected


def test_o_lines_strictly_decreasing_and_match_v(instance, capsys):
    f = gen_random(55, num_vars=9, num_hard=5, num_soft=10, clause_len=3)
    path = instance(serialize_wcnf(f))
    code, out, _ = run_cli([path, "--algo", "sss", "--mode", "sim", "--seed", "3"], capsys)
    if code != 30:
        pytest.skip("instance unsat")
    o_values = [int(l.split()[1]) for l in out.splitlines() if l.startswith("o ")]
    assert o_values == sorted(set(o_values), reverse=True)
    v_line = next(l for l in out.splitlines() if l.startswith("v "))
    model = {abs(int(t)): int(t) > 0 for t in v_line.split()[1:]}
    assert cost(f, model) == o_values[-1]


def test_sim_determinism_same_stdout(instance, capsys):
    f = gen_random(77, num_vars=8, num_hard=7, num_soft=8, clause_len=3)
    path = instance(serialize_wcnf(f))
    args = [path, "--algo", "sss", "--mode", "sim", "--workers", "4", "--seed", "7"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_dump_paths(instance, capsys, tmp_path):
    f = gen_random(13, num_vars=7, num_hard=6, num_soft=6, clause_len=3)
    path = instance(serialize_wcnf(f))
    dump = tmp_path / "paths.icnf"
    code, _, _ = run_cli(
        [path, "--algo", "gp", "--mode", "sim", "--dump-paths", str(dump)], capsys
    )
    if code == 30:
        text = dump.read_text()
        assert all(l.startswith("a ") and l.endswith(" 0") for l in text.splitlines())


@pytest.mark.parametrize("args", [["--algo", "sss", "--mode", "sim"], ["--algo", "linear"],
                                  ["--mode", "worker", "--connect", "127.0.0.1:1"]])
def test_dump_paths_needs_gp_in_sim_or_master(instance, capsys, tmp_path, args):
    dump = tmp_path / "paths.icnf"
    code, out, err = run_cli([instance(EXAMPLE), *args, "--dump-paths", str(dump)], capsys)
    assert code == 1 and out == "" and not dump.exists()
    assert err.splitlines()[-1] == "error: --dump-paths needs --algo gp in --mode sim or master"


def test_bad_flags(instance, capsys):
    code, _, err = run_cli([instance(EXAMPLE), "--algo", "sss", "--mode", "standalone"], capsys)
    assert code == 1 and "sss" in err
    code, _, err = run_cli([instance(EXAMPLE), "--algo", "linear", "--mode", "sim"], capsys)
    assert code == 1
    code, _, err = run_cli([instance(EXAMPLE), "--algo", "sss", "--mode", "master"], capsys)
    assert code == 1 and "listen" in err
    code, _, err = run_cli([instance(EXAMPLE), "--mode", "worker"], capsys)
    assert code == 1 and "connect" in err


def test_timeout_without_model_exits_unknown(instance, capsys):
    f = gen_random(31, num_vars=8, num_hard=8, num_soft=8, clause_len=3)
    path = instance(serialize_wcnf(f))
    # A deadline already in the past: the sim loop stops before any delivery.
    code, out, _ = run_cli(
        [path, "--algo", "sss", "--mode", "sim", "--timeout", "1e-9"], capsys
    )
    assert code == 0
    assert "s UNKNOWN" in out


def test_reporter_timeout_with_model_exits_10(capsys):
    from distmaxsat.cli import Reporter
    import sys as _sys

    f = make_formula(2, [[1, 2]], [[-1], [-2]])
    r = Reporter(f, _sys.stdout)
    r.improve(1, {1: True, 2: False})
    code = r.finish("satisfiable")
    out = capsys.readouterr().out
    assert code == 10
    assert "s SATISFIABLE" in out
    assert out.splitlines()[-1].startswith("v ")


def test_unreadable_instance(capsys):
    code, _, err = run_cli(["/nonexistent/no.wcnf"], capsys)
    assert code == 1
    assert "cannot read" in err


def test_malformed_instance(instance, capsys):
    code, _, err = run_cli([instance("p wcnf broken\n")], capsys)
    assert code == 1
    assert "bad instance" in err


class PerThreadStdout:
    """A stand-in for sys.stdout that keeps each thread's lines apart."""

    def __init__(self):
        self.parts = {}

    def write(self, text):
        self.parts.setdefault(threading.get_ident(), []).append(text)
        return len(text)

    def flush(self):
        pass

    def mine(self):
        return "".join(self.parts.get(threading.get_ident(), []))


def free_port():
    import socket as socketlib

    with socketlib.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def socket_run(path, algo, workers, port, worker_args, quitters=0):
    """Run a master and its workers in threads over localhost.  Returns the
    master's exit code and stdout, and each worker's stdout.  Each of the
    `quitters` extra workers says hello and closes its connection."""
    from distmaxsat.transport import Message, connect

    out = PerThreadStdout()
    results = {"worker_out": []}

    def master():
        results["code"] = main([
            path, "--algo", algo, "--mode", "master", "--listen", f"127.0.0.1:{port}",
            "--workers", str(workers + quitters), "--seed", "5",
        ])
        results["out"] = out.mine()

    def worker():
        main([path, "--mode", "worker", *worker_args, "--connect", f"127.0.0.1:{port}"])
        results["worker_out"].append(out.mine())

    def quitter():
        chan = connect("127.0.0.1", port)
        chan.send(Message("hello", "w0"))
        chan.close()

    threads = [threading.Thread(target=master, daemon=True)]
    threads += [threading.Thread(target=worker, daemon=True) for _ in range(workers)]
    threads += [threading.Thread(target=quitter, daemon=True) for _ in range(quitters)]
    with redirect_stdout(out):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    return results


def test_socket_master_worker_roundtrip(tmp_path):
    f = gen_random(99, num_vars=6, num_hard=5, num_soft=6, clause_len=3)
    expected = brute_force(f)
    path = tmp_path / "sock.wcnf"
    path.write_text(serialize_wcnf(f))

    from distmaxsat.oracle import HARD_UNSAT

    # The second worker argv is the README's worker line, which names no --algo.
    for worker_args in (["--algo", "sss"], []):
        results = socket_run(str(path), "sss", 2, free_port(), worker_args)
        assert "c algo sss mode master seed 5" in results["out"].splitlines()
        # A worker runs the tasks its master assigns, whatever --algo says.
        assert len(results["worker_out"]) == 2
        for text in results["worker_out"]:
            assert text.splitlines()[1] == "c mode worker seed 0"
            assert "c algo" not in text

        if expected == HARD_UNSAT:
            assert results["code"] == 20
        else:
            assert results["code"] == 30
            final_o = [int(l.split()[1]) for l in results["out"].splitlines() if l.startswith("o ")][-1]
            assert final_o == expected


@pytest.mark.parametrize("algo", ["sss", "gp"])
def test_socket_master_survives_a_worker_that_says_hello_and_closes(tmp_path, algo):
    f = gen_random(7, num_vars=12, num_hard=10, num_soft=20, clause_len=3)
    expected = brute_force(f)
    assert expected > 0
    path = tmp_path / "lost.wcnf"
    path.write_text(serialize_wcnf(f))
    for _ in range(3):  # the loss lands before or after the run begins
        results = socket_run(str(path), algo, 1, free_port(), [], quitters=1)
        lines = results["out"].splitlines()
        assert results["code"] == 30, results["out"]
        assert "s OPTIMUM FOUND" in lines
        assert [l for l in lines if l.startswith("o ")][-1] == f"o {expected}"


def test_master_timeout_bounds_waiting_for_workers(instance):
    """No worker comes: the master still holds its hard-clause model, and at
    the deadline it prints that model as its answer."""
    path = instance(EXAMPLE)
    out = PerThreadStdout()
    result = {}

    def master():
        result["code"] = main([path, "--algo", "sss", "--mode", "master", "--workers", "2",
                               "--listen", f"127.0.0.1:{free_port()}", "--timeout", "1"])
        result["out"] = out.mine()

    thread = threading.Thread(target=master, daemon=True)
    with redirect_stdout(out):
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert result["code"] == 10
    lines = result["out"].splitlines()
    assert lines[-3:-1] == ["c timeout", "s SATISFIABLE"]
    last_o = [int(l.split()[1]) for l in lines if l.startswith("o ")][-1]
    model = {abs(int(t)): int(t) > 0 for t in lines[-1].split()[1:]}
    assert lines[-1].startswith("v ") and cost(parse_wcnf(EXAMPLE), model) == last_o


def test_worker_exits_cleanly_when_master_closes_mid_report(tmp_path):
    """A master that closes while a worker is reporting ends the worker's run."""
    import socket as socketlib

    from distmaxsat.transport import Message, decode_message, encode_message

    f = gen_random(7, num_vars=10, num_hard=8, num_soft=12, clause_len=3)
    path = tmp_path / "gone.wcnf"
    path.write_text(serialize_wcnf(f))
    server = socketlib.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]
    result = {}

    def worker():
        try:
            result["code"] = main([str(path), "--mode", "worker", "--algo", "sss",
                                   "--connect", f"127.0.0.1:{port}"])
        except Exception as exc:  # recorded for the assertion below
            result["error"] = exc

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    server.settimeout(30)
    try:
        conn, _ = server.accept()
    finally:
        server.close()
    with conn:
        conn.settimeout(30)
        hello = b""
        while not hello.endswith(b"\n"):
            chunk = conn.recv(1)
            assert chunk, "worker closed before its hello"
            hello += chunk
        assert decode_message(hello).kind == "hello"
        conn.sendall(encode_message(Message("assign_path", "master", {"task": -1, "path": [], "mu": f.num_soft + 1})))
        # Wait until a report is in, then close with it unread: the worker
        # gets a reset while it reports or waits for the next message.
        assert conn.recv(1, socketlib.MSG_PEEK)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert "error" not in result, repr(result.get("error"))
    assert result["code"] == 0


@pytest.mark.parametrize("case", ["in_task", "waiting"])
def test_worker_timeout_bounds_a_socket_worker(tmp_path, case):
    """`--timeout` bounds a socket worker, both in a task it cannot finish in
    time (`in_task`: task -1 on php98) and while it waits for a task that
    never comes (`waiting`): it is back within a few seconds."""
    import socket as socketlib

    from conftest import pigeonhole
    from distmaxsat.transport import Message, decode_message, encode_message

    f = pigeonhole(1, holes=8)  # msu3 needs far more than 1 s
    path = tmp_path / "php98.wcnf"
    path.write_text(serialize_wcnf(f))
    server = socketlib.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]
    out = PerThreadStdout()
    result = {}

    def worker():
        result["code"] = main([str(path), "--mode", "worker", "--timeout", "1",
                               "--connect", f"127.0.0.1:{port}"])
        result["out"] = out.mine()

    thread = threading.Thread(target=worker, daemon=True)
    with redirect_stdout(out):
        thread.start()
        server.settimeout(30)
        try:
            conn, _ = server.accept()
        finally:
            server.close()
        with conn:
            conn.settimeout(30)
            hello = b""
            while not hello.endswith(b"\n"):
                chunk = conn.recv(1)
                assert chunk, "worker closed before its hello"
                hello += chunk
            assert decode_message(hello).kind == "hello"
            if case == "in_task":
                task = Message("assign_path", "master", {"task": -1, "path": [], "mu": f.num_soft + 1})
                conn.sendall(encode_message(task))
            thread.join(timeout=5)
    assert not thread.is_alive()
    assert result["code"] == 0
    assert result["out"].splitlines()[-1] == "c timeout"


def test_worker_timeout_bounds_connecting_to_a_missing_master(instance, capsys):
    """With no master listening, `--timeout 1` ends the worker's connect
    retries: it is back within 2 s, says so, and exits 0."""
    start = time.monotonic()
    code, out, _ = run_cli([instance(EXAMPLE), "--mode", "worker", "--timeout", "1",
                            "--connect", f"127.0.0.1:{free_port()}"], capsys)
    assert time.monotonic() - start < 2
    assert code == 0
    assert out.splitlines()[-1] == "c timeout"


def test_readme_library_example_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})


def test_solver_never_imports_numpy(instance):
    """The package needs only the standard library; importing it and a
    standalone CLI run must not load numpy (fresh interpreter)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys, distmaxsat\n"
        "assert 'numpy' not in sys.modules\n"
        "from distmaxsat.cli import main\n"
        f"code = main([{instance(EXAMPLE)!r}, '--algo', 'linear'])\n"
        "assert 'numpy' not in sys.modules\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 30, proc.stderr
    assert "s OPTIMUM FOUND" in proc.stdout


def test_each_mode_imports_only_the_code_it_runs(instance):
    """A standalone solve loads no distributed code, no oracle, no
    dataclasses and no sockets, and a worker or a sim sss solve no lookahead
    (fresh interpreter; only modules loaded after start-up count)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import json, sys\n"
        "start = set(sys.modules)\n"
        "import distmaxsat\n"
        "from distmaxsat.cli import main\n"
        f"code = main([{instance(EXAMPLE)!r}, '--algo', 'linear'])\n"
        "standalone = sorted(set(sys.modules) - start)\n"
        "from distmaxsat.orchestration import WorkerNode\n"
        "worker = sorted(set(sys.modules) - start)\n"
        f"sim_code = main([{instance(EXAMPLE)!r}, '--algo', 'sss', '--mode', 'sim'])\n"
        "sim = sorted(set(sys.modules) - start)\n"
        "print(json.dumps([code, standalone, worker, sim_code, sim]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, standalone, worker, sim_code, sim = json.loads(proc.stdout.splitlines()[-1])
    assert code == sim_code == 30
    unneeded = {"dataclasses", "distmaxsat.orchestration", "distmaxsat.transport", "distmaxsat.lookahead",
                "distmaxsat.oracle", "socket", "selectors"}
    assert unneeded.intersection(standalone) == set()
    assert "distmaxsat.orchestration" in worker and "distmaxsat.lookahead" not in worker + sim
    assert "distmaxsat.oracle" not in sim


def test_unreachable_master_ends_in_one_error_line(instance, capsys, monkeypatch):
    """With no master and no --timeout a worker retries after a fixed pause of
    at most 5 ms for about 5 s, then reports one error line."""
    from distmaxsat import transport

    pauses = []
    monkeypatch.setattr(transport.time, "sleep", pauses.append)
    code, out, err = run_cli([instance(EXAMPLE), "--mode", "worker",
                              "--connect", f"127.0.0.1:{free_port()}"], capsys)
    assert code == 1
    assert err.splitlines() == [err.strip()] and err.startswith("error: could not reach master at 127.0.0.1:")
    assert "Traceback" not in out + err
    assert len(set(pauses)) == 1 and pauses[0] <= 0.005
    assert 4.9 <= sum(pauses) <= 5.2


def test_master_on_a_taken_port_ends_in_one_error_line(instance, capsys):
    import socket as socketlib

    with socketlib.create_server(("127.0.0.1", 0)) as taken:
        addr = f"127.0.0.1:{taken.getsockname()[1]}"
        code, out, err = run_cli([instance(EXAMPLE), "--algo", "sss", "--mode", "master", "--workers", "1",
                                  "--listen", addr], capsys)
    assert code == 1
    assert err.splitlines() == [err.strip()] and err.startswith(f"error: cannot listen on {addr}:")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("flag,addr", [("--connect", "foo"), ("--listen", "127.0.0.1:notaport")])
def test_malformed_address_ends_in_one_error_line(instance, capsys, flag, addr):
    mode = ["--mode", "worker"] if flag == "--connect" else ["--algo", "sss", "--mode", "master"]
    code, out, err = run_cli([instance(EXAMPLE), *mode, flag, addr], capsys)
    assert code == 1
    assert err.splitlines() == [err.strip()] and err.startswith(f"error: {flag} {addr}:")
    assert "Traceback" not in out + err


def cli_process(*args):
    """The CLI in a fresh interpreter, its stdout and stderr piped."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "distmaxsat.cli", *map(str, args)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def lines_up_to_status(proc):
    """The process's stdout lines up to and including its `s` line."""
    lines = []
    while not lines or not lines[-1].startswith("s "):
        line = proc.stdout.readline()
        assert line, f"stdout closed before an s line: {lines}"
        lines.append(line.rstrip("\n"))
    return lines


def test_a_worker_started_after_the_verdict_exits_cleanly(tmp_path):
    """A socket gp master sized for 2 workers solves with the one that came;
    a second worker, started only once the result is printed, still finds it
    listening, ends on its terminate with exit 0, and no process outlives
    the master by 1 s."""
    f = gen_random(7, num_vars=12, num_hard=10, num_soft=20, clause_len=3)
    path = tmp_path / "late.wcnf"
    path.write_text(serialize_wcnf(f))
    addr = f"127.0.0.1:{free_port()}"
    procs = [cli_process(path, "--algo", "gp", "--mode", "master", "--listen", addr, "--workers", 2, "--timeout", 60),
             cli_process(path, "--mode", "worker", "--connect", addr, "--timeout", 60)]
    try:
        lines = lines_up_to_status(procs[0])
        assert lines[-1] == "s OPTIMUM FOUND" and [l for l in lines if l.startswith("o ")][-1] == f"o {brute_force(f)}"
        procs.append(cli_process(path, "--mode", "worker", "--connect", addr, "--timeout", 60))
        procs[0].wait(timeout=30)
        exited = time.monotonic()
        while time.monotonic() < exited + 1 and any(p.poll() is None for p in procs):
            time.sleep(0.02)
        assert [p.poll() for p in procs] == [30, 0, 0]
        late_out, late_err = procs[2].communicate(timeout=5)
        assert late_err == "" and "c timeout" not in late_out
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.communicate()


@pytest.mark.parametrize("algo", ["sss", "gp"])
def test_a_connection_that_never_says_hello_holds_nothing_up(tmp_path, algo):
    """A socket master sized for 2 workers whose first connection never says
    hello begins at the real worker's hello and proves the optimum; once
    that silent connection closes, the master exits 30."""
    from distmaxsat.transport import connect

    f = gen_random(7, num_vars=12, num_hard=10, num_soft=20, clause_len=3)
    path = tmp_path / "silent.wcnf"
    path.write_text(serialize_wcnf(f))
    port = free_port()
    procs = [cli_process(path, "--algo", algo, "--mode", "master", "--listen", f"127.0.0.1:{port}",
                         "--workers", 2, "--timeout", 20)]
    try:
        silent = connect("127.0.0.1", port)
        try:
            procs.append(cli_process(path, "--mode", "worker", "--connect", f"127.0.0.1:{port}", "--timeout", 20))
            lines = lines_up_to_status(procs[0])
        finally:
            silent.close()
        assert lines[-1] == "s OPTIMUM FOUND"
        assert [l for l in lines if l.startswith("o ")][-1] == f"o {brute_force(f)}"
        assert procs[0].wait(timeout=30) == 30
        assert procs[1].wait(timeout=30) == 0
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.communicate()


@pytest.mark.parametrize("algo", ["sss", "gp"])
def test_a_finished_master_exits_while_a_silent_connection_stays_open(tmp_path, algo):
    """A socket master sized for 2 workers, whose connections are one that
    never says hello and one real worker, exits 30 within 2 s of printing
    its result, with the silent connection still open; the worker exits 0."""
    from distmaxsat.transport import connect

    f = gen_random(7, num_vars=12, num_hard=10, num_soft=20, clause_len=3)
    path = tmp_path / "silent.wcnf"
    path.write_text(serialize_wcnf(f))
    port = free_port()
    procs = [cli_process(path, "--algo", algo, "--mode", "master", "--listen", f"127.0.0.1:{port}",
                         "--workers", 2, "--timeout", 20)]
    silent = connect("127.0.0.1", port)
    try:
        procs.append(cli_process(path, "--mode", "worker", "--connect", f"127.0.0.1:{port}", "--timeout", 20))
        assert lines_up_to_status(procs[0])[-1] == "s OPTIMUM FOUND"
        assert procs[0].wait(timeout=2) == 30
        assert procs[1].wait(timeout=30) == 0
    finally:
        silent.close()
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.communicate()


def test_hard_unsat_master_answers_before_any_worker_connects(instance):
    """With no worker there, the master proves the hard clauses unsatisfiable
    and prints so; a hello sent after that is answered with terminate, and
    the master then exits 20."""
    from distmaxsat.transport import Message, connect

    port = free_port()
    master = cli_process(instance(UNSAT), "--algo", "sss", "--mode", "master", "--listen", f"127.0.0.1:{port}",
                         "--workers", 1, "--timeout", 60)
    try:
        assert lines_up_to_status(master)[-2:] == ["c algo sss mode master seed 0", "s UNSATISFIABLE"]
        chan = connect("127.0.0.1", port)
        try:
            chan.send(Message("hello", "w0"))
            answer = chan.recv(timeout=30)
        finally:
            chan.close()
        assert answer.kind == "terminate" and answer.payload["verdict"] == "unsatisfiable"
        assert master.wait(timeout=30) == 20
    finally:
        if master.poll() is None:
            master.kill()
        master.communicate()


@pytest.mark.parametrize("mode", ["sim-sss", "sim-gp", "master-sss"])
def test_timeout_bounds_the_first_sat_call(tmp_path, mode):
    """The hard clauses of PHP(9, 8) take about a minute to refute; with
    `--timeout 1` the run stops within 3 s, unknown, in sim and master mode
    alike (the master has no worker)."""
    path = tmp_path / "php98.wcnf"
    path.write_text(serialize_wcnf(hard_pigeonhole(8)))
    where, algo = mode.split("-")
    extra = ["--listen", f"127.0.0.1:{free_port()}", "--workers", 1] if where == "master" else []
    began = time.monotonic()
    proc = cli_process(path, "--algo", algo, "--mode", where, "--timeout", 1, *extra)
    try:
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert time.monotonic() - began < 3
    assert proc.returncode == 0, err
    assert out.splitlines()[-2:] == ["c timeout", "s UNKNOWN"]


def test_a_socket_gp_master_dumps_the_paths_a_sim_run_makes(tmp_path):
    """The root frontier is final once the master has started, so a socket
    gp master writes the same `--dump-paths` file as a sim run of the same
    size and seed."""
    f = gen_random(7, num_vars=12, num_hard=10, num_soft=20, clause_len=3)
    path = tmp_path / "dump.wcnf"
    path.write_text(serialize_wcnf(f))
    addr = f"127.0.0.1:{free_port()}"
    dumps = {where: tmp_path / f"{where}.icnf" for where in ("master", "sim")}
    procs = [cli_process(path, "--algo", "gp", "--mode", "master", "--listen", addr, "--workers", 2,
                         "--timeout", 60, "--dump-paths", dumps["master"], "--seed", 3),
             cli_process(path, "--mode", "worker", "--connect", addr, "--timeout", 60),
             cli_process(path, "--mode", "worker", "--connect", addr, "--timeout", 60),
             cli_process(path, "--algo", "gp", "--mode", "sim", "--workers", 2, "--dump-paths", dumps["sim"],
                         "--seed", 3)]
    try:
        assert [p.wait(timeout=30) for p in procs] == [30, 0, 0, 30]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.communicate()
    text = dumps["master"].read_text()
    assert text and text == dumps["sim"].read_text()
    assert all(l.startswith("a ") and l.endswith(" 0") for l in text.splitlines())


def test_socket_master_drops_a_bad_line_and_reads_the_lines_after_it(tmp_path):
    """A line the master cannot decode is dropped, and stderr names the line,
    not the worker; the hello sent in the same write is still read.  The bad
    line is of the retired `report_lower_bound` kind, so it cannot raise λ:
    the worker's task -1 proves the optimum."""
    from distmaxsat.orchestration import WorkerNode, initial_upper_bound
    from distmaxsat.transport import Message, connect

    f = gen_random(7, num_vars=12, num_hard=10, num_soft=20, clause_len=3)
    path = tmp_path / "bad.wcnf"
    path.write_text(serialize_wcnf(f))
    port = free_port()
    master = cli_process(path, "--algo", "sss", "--mode", "master", "--listen", f"127.0.0.1:{port}",
                         "--workers", 1, "--timeout", 60)
    try:
        chan = connect("127.0.0.1", port)
        try:
            chan.sock.sendall(b"kind=report_lower_bound sender=w0 lb=999\nkind=hello sender=w0\n")
            msg = chan.recv(timeout=30)
            mu, _model = initial_upper_bound(f)
            assert msg == Message("assign_path", "master", {"task": -1, "path": [], "mu": mu})
            worker = WorkerNode("w0", f, send=chan.send)
            while not worker.done:
                worker.on_message(msg)
                msg = chan.recv(timeout=30)
        finally:
            chan.close()
        out, err = master.communicate(timeout=30)
        assert master.returncode == 30
        assert [l for l in out.splitlines() if l.startswith("o ")][-1] == f"o {brute_force(f)}"
        assert err == "c dropping a line from w1: unknown message kind: report_lower_bound\n"
    finally:
        if master.poll() is None:
            master.kill()
            master.communicate()


def test_worker_ends_a_bad_line_from_its_master_in_one_error_line(instance):
    import socket as socketlib

    with socketlib.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(30)
        worker = cli_process(instance(EXAMPLE), "--mode", "worker", "--timeout", 60,
                             "--connect", f"127.0.0.1:{server.getsockname()[1]}")
        try:
            conn, _ = server.accept()
            with conn:
                conn.settimeout(30)
                assert conn.makefile("rb").readline().startswith(b"kind=hello ")
                conn.sendall(b"kind=assign_path sender=master task=0 path= mu=x\n")
                out, err = worker.communicate(timeout=30)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.communicate()
    assert worker.returncode == 1
    assert err == "error: assign_path: bad value for mu: 'x'\n"
    assert "Traceback" not in out
