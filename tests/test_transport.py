import random
import threading

import pytest

from distmaxsat.transport import (
    SCHEMA,
    LineChannel,
    Message,
    MessageError,
    SimBus,
    connect,
    decode_message,
    encode_message,
)


def test_assign_bound_roundtrip():
    m = Message("assign_bound", "master", {"bound": 6})
    line = encode_message(m)
    assert line.endswith(b"\n")
    assert b"bound=6" in line
    assert decode_message(line) == m


def test_terminate_roundtrip_with_model():
    m = Message("terminate", "master", {"verdict": "optimum", "cost": 1, "model": [-1, 2]})
    assert decode_message(encode_message(m)) == m


def test_message_requires_schema_fields():
    with pytest.raises(MessageError, match="missing"):
        Message("assign_bound", "master", {})
    with pytest.raises(MessageError, match="unexpected"):
        Message("abort", "master", {"bound": 3})
    with pytest.raises(MessageError, match="unknown"):
        Message("nonsense", "master", {})


def random_message(rng: random.Random) -> Message:
    kind = rng.choice(list(SCHEMA))
    sender = rng.choice(["master", "w1", "w2", "w17"])
    payload = {}
    for name, ftype in SCHEMA[kind].items():
        if ftype == "int":
            payload[name] = rng.randint(-3, 99)
        elif ftype == "lits":
            payload[name] = [
                rng.choice([1, -1]) * rng.randint(1, 30) for _ in range(rng.randint(0, 8))
            ]
        else:
            payload[name] = rng.choice(["optimum", "unsatisfiable", "unknown", "gp_solver"])
    return Message(kind, sender, payload)


def test_thousand_random_messages_roundtrip():
    rng = random.Random(2024)
    for _ in range(1000):
        m = random_message(rng)
        assert decode_message(encode_message(m)) == m


def test_decode_truncated_line():
    with pytest.raises(MessageError, match="framing"):
        decode_message(b"kind=abort sender=master")


def test_decode_unknown_kind():
    with pytest.raises(MessageError, match="unknown message kind"):
        decode_message(b"kind=frobnicate sender=w1\n")


def test_decode_missing_field():
    with pytest.raises(MessageError, match="missing"):
        decode_message(b"kind=assign_bound sender=master\n")


def test_decode_trailing_garbage_field():
    with pytest.raises(MessageError, match="unexpected"):
        decode_message(b"kind=abort sender=master wat=1\n")


def test_decode_bad_value():
    with pytest.raises(MessageError, match="bad value"):
        decode_message(b"kind=assign_bound sender=master bound=six\n")


def test_decode_assign_path_three_literals():
    m = decode_message(b"kind=assign_path sender=master task=4 path=1,-3,5 mu=7\n")
    assert m.payload["path"] == [1, -3, 5]
    assert m.payload["mu"] == 7


def test_simbus_single_link_fifo():
    bus = SimBus(0, ["a", "b"])
    for i in range(5):
        bus.send("a", "b", Message("assign_bound", "a", {"bound": i}))
    got = []
    while bus.pending():
        _, _, m = bus.deliver_next()
        got.append(m.payload["bound"])
    assert got == list(range(5))


def test_simbus_same_seed_identical_trace():
    def run(seed):
        bus = SimBus(seed, ["m", "w1", "w2"])
        rng = random.Random(5)
        for i in range(30):
            src, dst = rng.sample(["m", "w1", "w2"], 2)
            bus.send(src, dst, Message("report_lower_bound", src, {"lb": i}))
        trace = []
        while bus.pending():
            bus.deliver_next()
        return bus.trace

    assert run(3) == run(3)
    assert run(3) != run(4)  # different interleavings (almost surely)


def test_simbus_unknown_participant():
    bus = SimBus(0, ["a"])
    with pytest.raises(KeyError):
        bus.send("a", "zzz", Message("abort", "a", {}))


def test_socket_channel_roundtrip():
    import socket as socketlib

    srv = socketlib.create_server(("127.0.0.1", 0))
    port = srv.getsockname()[1]

    def accept_and_echo():
        conn, _ = srv.accept()
        chan = LineChannel(conn)
        while True:
            m = chan.recv(timeout=5)
            if m is None or m.kind == "terminate":
                break
            chan.send(m)
        chan.close()

    t = threading.Thread(target=accept_and_echo)
    t.start()
    client = connect("127.0.0.1", port)
    sent = [
        Message("report_sat", "w1", {"cost": 2, "model": [1, -2, 3]}),
        Message("report_done", "w1", {"task": 4, "lb": 5}),
    ]
    for m in sent:
        client.send(m)
    for m in sent:
        assert client.recv(timeout=5) == m
    client.send(Message("terminate", "master", {"verdict": "unknown", "cost": -1, "model": []}))
    t.join(timeout=5)
    client.close()
    srv.close()
