import os
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from distmaxsat.cli import main
from distmaxsat.formula import make_formula, serialize_wcnf
from distmaxsat.oracle import brute_force, gen_random


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
    from distmaxsat.formula import cost

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
        chan.send(Message("hello", "w0", {"role": "worker"}))
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
        # A worker's role comes from the master's hello, whatever --algo says.
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
    assert result["code"] == 0
    lines = result["out"].splitlines()
    assert lines[-2:] == ["c timeout", "s UNKNOWN"]


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
        conn.sendall(encode_message(Message("hello", "master", {"role": "sss_msu3"})))
        # Wait until a report is in, then close with it unread: the worker
        # gets a reset while it reports or waits for the next message.
        assert conn.recv(1, socketlib.MSG_PEEK)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert "error" not in result, repr(result.get("error"))
    assert result["code"] == 0


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
