"""Master/worker message protocol and the two delivery mechanisms.

Messages are single newline-terminated text lines of "key=value" tokens with
a leading kind tag, so wire traffic stays greppable.  The same encoded form
travels over both transports: a deterministic in-process bus for tests and
simulation, and TCP stream sockets for real multi-process runs.  Encoding and
decoding are pure; per-link delivery is FIFO in both transports.
"""

from __future__ import annotations

import random
import socket
import time
from collections import deque, namedtuple


class MessageError(ValueError):
    """Raised on any decode failure; the message pins down which kind."""


# kind -> (required payload fields, field type)
# types: "int", "lits" (comma-separated literals), "str"
SCHEMA: dict[str, dict[str, str]] = {
    "hello": {},
    "assign_path": {"task": "int", "path": "lits", "mu": "int"},
    "report_sat": {"cost": "int", "model": "lits"},
    "report_done": {"task": "int", "lb": "int"},
    "terminate": {"verdict": "str", "cost": "int", "model": "lits"},
}


class Message(namedtuple("Message", "kind sender payload")):
    """One protocol message; its payload must hold exactly the fields
    `SCHEMA` lists for its kind (none by default)."""

    __slots__ = ()

    def __new__(cls, kind: str, sender: str, payload: dict | None = None):
        payload = {} if payload is None else payload
        if kind not in SCHEMA:
            raise MessageError(f"unknown message kind: {kind}")
        want = SCHEMA[kind]
        missing = set(want) - set(payload)
        extra = set(payload) - set(want)
        if missing:
            raise MessageError(f"{kind}: missing field(s) {sorted(missing)}")
        if extra:
            raise MessageError(f"{kind}: unexpected field(s) {sorted(extra)}")
        return super().__new__(cls, kind, sender, payload)


def _encode_value(ftype: str, value) -> str:
    if ftype == "int":
        return str(int(value))
    if ftype == "lits":
        return ",".join(str(int(l)) for l in value)
    return str(value)


def _decode_value(ftype: str, text: str):
    if ftype == "int":
        return int(text)
    if ftype == "lits":
        if not text:
            return []
        return [int(t) for t in text.split(",")]
    if any(ch.isspace() for ch in text) or not text:
        raise ValueError(text)
    return text


def encode_message(m: Message) -> bytes:
    fields = [f"kind={m.kind}", f"sender={m.sender}"]
    for name in SCHEMA[m.kind]:
        fields.append(f"{name}={_encode_value(SCHEMA[m.kind][name], m.payload[name])}")
    return (" ".join(fields) + "\n").encode("utf-8")


def decode_message(data: bytes) -> Message:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MessageError(f"undecodable bytes: {exc}") from None
    if not text.endswith("\n"):
        raise MessageError("framing error: line not newline-terminated")
    text = text[:-1]
    if "\n" in text:
        raise MessageError("framing error: embedded newline")
    pairs = []
    for token in text.split(" "):
        if "=" not in token:
            raise MessageError(f"malformed token: {token!r}")
        pairs.append(token.split("=", 1))
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise MessageError(f"duplicate field: {key}")
        fields[key] = value
    if "kind" not in fields:
        raise MessageError("missing kind tag")
    kind = fields.pop("kind")
    if kind not in SCHEMA:
        raise MessageError(f"unknown message kind: {kind}")
    if "sender" not in fields:
        raise MessageError(f"{kind}: missing sender")
    sender = fields.pop("sender")
    want = SCHEMA[kind]
    payload = {}
    for name, raw in fields.items():
        if name not in want:
            raise MessageError(f"{kind}: unexpected field(s) ['{name}']")
        try:
            payload[name] = _decode_value(want[name], raw)
        except ValueError:
            raise MessageError(f"{kind}: bad value for {name}: {raw!r}") from None
    return Message(kind=kind, sender=sender, payload=payload)


class SimBus:
    """Deterministic in-process delivery: per-link FIFO queues, with the next
    link to deliver drawn from a seeded generator.  Identical seed and send
    sequence yield an identical delivery trace."""

    def __init__(self, seed: int, participants):
        self.participants = list(participants)
        self.queues: dict[tuple[str, str], deque[bytes]] = {}
        self.rng = random.Random(seed)
        self.trace: list[bytes] = []

    def send(self, src: str, dst: str, message: Message) -> None:
        if dst not in self.participants or src not in self.participants:
            raise KeyError(f"unknown participant on link {src}->{dst}")
        self.queues.setdefault((src, dst), deque()).append(encode_message(message))

    def pending(self) -> bool:
        return any(self.queues.values())

    def deliver_next(self) -> tuple[str, str, Message]:
        links = sorted(k for k, q in self.queues.items() if q)
        if not links:
            raise RuntimeError("no pending messages")
        src, dst = links[self.rng.randrange(len(links))]
        data = self.queues[(src, dst)].popleft()
        self.trace.append(b"%s>%s %s" % (src.encode(), dst.encode(), data))
        return src, dst, decode_message(data)

    def drain(self, dst: str):
        """Every message waiting for `dst`, link by link in sorted order."""
        for src, to in sorted(self.queues):
            while to == dst and self.queues[(src, to)]:
                data = self.queues[(src, to)].popleft()
                self.trace.append(b"%s>%s %s" % (src.encode(), dst.encode(), data))
                yield src, decode_message(data)


class LineChannel:
    """Newline-framed messages over a connected stream socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = b""

    def send(self, message: Message) -> None:
        self.sock.sendall(encode_message(message))

    def recv(self, timeout: float | None = None) -> Message | None:
        """Next message, or None on clean EOF; raises TimeoutError on timeout."""
        self.sock.settimeout(timeout)
        while b"\n" not in self.buffer:
            try:
                chunk = self.sock.recv(4096)
            except socket.timeout:
                raise TimeoutError("recv timed out") from None
            if not chunk:
                if self.buffer:
                    raise MessageError("connection closed mid-message")
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return decode_message(line + b"\n")

    def poll(self) -> Message | None:
        """Non-blocking receive; None when no complete line is waiting.
        Raises EOFError once the peer has closed the connection."""
        self.sock.setblocking(False)
        try:
            while b"\n" not in self.buffer:
                try:
                    chunk = self.sock.recv(4096)
                except BlockingIOError:
                    return None
                if not chunk:
                    raise EOFError("connection closed")
                self.buffer += chunk
        finally:
            self.sock.setblocking(True)
        line, self.buffer = self.buffer.split(b"\n", 1)
        return decode_message(line + b"\n")

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def accept(server: socket.socket) -> LineChannel:
    """The next worker connection waiting on the listening socket `server`."""
    conn, _ = server.accept()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return LineChannel(conn)


# A worker started with its master polls at this pace: the master answers
# as soon as it runs, so its first worker should not wait long to join.
CONNECT_PAUSE_S = 0.005


def connect(host: str, port: int, deadline=None) -> LineChannel:
    """Reach the master, which may not listen yet: retry every `CONNECT_PAUSE_S`,
    and raise ConnectionError once the pauses add up to 5 s.  Raises
    TimeoutError once `time.monotonic()` passes `deadline`."""
    waited = 0.0
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"master at {host}:{port} not reached before the deadline")
        try:
            sock = socket.create_connection((host, port), timeout=10)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return LineChannel(sock)
        except OSError as exc:
            if waited >= 5.0:
                raise ConnectionError(f"could not reach master at {host}:{port}: {exc}") from None
        time.sleep(CONNECT_PAUSE_S)
        waited += CONNECT_PAUSE_S
