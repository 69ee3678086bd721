"""The load generator: one thread, three sockets, open loop.

:class:`Cluster` launches the server process (:mod:`server`) and talks
to its control pipe; :class:`Session` drives one launched cluster from
the three protocol roles a real deployment has —

* ``source``: EVENT/BATCH frames into the central port,
* ``subscriber``: predicates up, the matched push stream down, on the
  first mirror's client port,
* ``client``: pipelined initial-state REQUESTs on the last mirror's
  client port —

through the same three phases on every workload: *set-up*, a *paced*
phase on a fixed schedule, and a *burst* phase limited only by TCP
back-pressure.  Every send is timed from the instant it was due, not
the instant it happened, and how late the generator ran is reported
with the latencies it may have spoiled.  The only clock is this
process's ``time.perf_counter``.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.events import EventBatch, UpdateEvent
from repro.ois.clients import InitStateRequest, InitStateResponse
from repro.sub.messages import SubAck
from repro.wire import RESET, FrameSplitter, Hello, WireDecoder, WireEncoder

from workloads import CLIENT_POOL, Inputs

__all__ = ["Cluster", "Session", "PacedResult", "LATENCY_LIMIT_S"]

_HERE = os.path.dirname(os.path.abspath(__file__))
_HOST = "127.0.0.1"
#: A delivery or response later than this is a failed operation.
LATENCY_LIMIT_S = 1.0
#: The server's on-CPU time is read this often during the paced phase.
CPU_WINDOW_S = 1.0
#: How long a phase may take to drain before the run is given up.
_SETTLE_TIMEOUT_S = 30.0


class Cluster:
    """One launched server process and its control pipe."""

    def __init__(self, workload: str, cpu: Optional[int], trace_path: Optional[str] = None):
        spec = {
            "workload": workload,
            "cpu": cpu,
            "trace": trace_path is not None,
            "trace_path": trace_path,
        }
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(_HERE, "server.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.ready = self._reply()
        except BaseException:
            self.stop()
            raise
        self.ready_at = time.perf_counter()
        self.pid: int = self.ready["pid"]

    def _reply(self) -> Dict[str, Any]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process ended without answering")
        return json.loads(line)

    def ask(self, command: str) -> Dict[str, Any]:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def cpu_ns(self) -> int:
        """On-CPU nanoseconds of the server's (only busy) thread."""
        with open(f"/proc/{self.pid}/schedstat", encoding="ascii") as fh:
            return int(fh.read().split()[0])

    def memory_mib(self) -> Tuple[float, float]:
        """(resident now, resident high-water mark) in MiB."""
        rss = hwm = 0.0
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1]) / 1024.0
                elif line.startswith("VmHWM:"):
                    hwm = int(line.split()[1]) / 1024.0
        return rss, hwm

    def stop(self, graceful: bool = False) -> None:
        """End the process and wait for it; ``graceful`` lets it write
        its trace file first."""
        proc = self.proc
        if proc.poll() is None:
            if graceful:
                try:
                    assert proc.stdin is not None
                    proc.stdin.write("quit\n")
                    proc.stdin.flush()
                    proc.wait(timeout=20)
                except (OSError, subprocess.TimeoutExpired):
                    proc.kill()
            else:
                proc.kill()
        proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass


class _Conn:
    """One non-blocking socket with its frame reassembly and decoder."""

    def __init__(self, port: int):
        self.sock = socket.create_connection((_HOST, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.backlog = bytearray()
        self._splitter = FrameSplitter()
        self._decoder = WireDecoder()

    def write(self, data: bytes) -> None:
        """Send now what the socket takes; keep the rest for :meth:`flush`."""
        if not self.backlog:
            try:
                sent = self.sock.send(data)
            except BlockingIOError:
                sent = 0
            if sent < len(data):
                self.backlog += memoryview(data)[sent:]
        else:
            self.backlog += data

    def flush(self) -> None:
        if self.backlog:
            try:
                sent = self.sock.send(self.backlog)
            except BlockingIOError:
                return
            del self.backlog[:sent]

    def read(self) -> List[Any]:
        """Decode every message completed by the bytes now readable."""
        try:
            data = self.sock.recv(1 << 18)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("server closed a load-generator socket")
        decode = self._decoder.decode_body
        messages = [decode(mtype, body) for mtype, body in self._splitter.feed(data)]
        return [m for m in messages if m is not RESET]

    def close(self) -> None:
        self.sock.close()


@dataclass
class PacedResult:
    """Raw samples of one paced phase (seconds unless named otherwise)."""

    update_latencies: List[float] = field(default_factory=list)
    request_latencies: List[float] = field(default_factory=list)
    late_updates: int = 0
    late_responses: int = 0
    lateness: List[float] = field(default_factory=list)  # send time - due time
    server_cpu_windows: List[float] = field(default_factory=list)  # share of one core
    loadgen_cpu: float = 0.0  # share of one core
    events_sent: int = 0
    requests_sent: int = 0


class Session:
    """Drives one cluster through set-up, paced and burst phases."""

    def __init__(self, inputs: Inputs, cluster: Cluster):
        self.inputs = inputs
        self.cluster = cluster
        ready = cluster.ready
        self.source = _Conn(ready["central_port"])
        self.subscriber = _Conn(ready["client_ports"][0])
        self.client = _Conn(ready["client_ports"][-1])
        self._request_encoder = WireEncoder()
        n = inputs.n_events
        self.received = bytearray(n)  # deliveries per source event
        self.received_at = array("d", bytes(8 * n))
        self.deliveries = 0  # owed deliveries that have arrived
        self.unknown_deliveries = 0
        self.acks = 0
        self.events_sent = 0
        # requests, in issue order
        self.request_due: List[float] = []
        self.answers = bytearray()
        self.answered_at: List[float] = []
        self._pending: Dict[Tuple[str, float], int] = {}
        self.outstanding = 0
        self.unknown_responses = 0
        self.last_generation: Optional[int] = None

    def close(self) -> None:
        for conn in (self.source, self.subscriber, self.client):
            conn.close()

    # -- socket pump -----------------------------------------------------
    def pump(self, timeout: float) -> None:
        """Wait up to ``timeout`` for the sockets; take in what arrived
        and push out what an earlier write left behind."""
        source = self.source
        writable = [source.sock] if source.backlog else []
        readable, writable, _ = select.select(
            [self.subscriber.sock, self.client.sock], writable, [], max(0.0, timeout)
        )
        self._take(readable)
        if writable:
            source.flush()

    def _take(self, readable: List[socket.socket]) -> None:
        """Decode what arrived; one receipt time per wake-up."""
        if not readable:
            return
        now = time.perf_counter()
        for sock in readable:
            if sock is self.subscriber.sock:
                for message in self.subscriber.read():
                    self._on_push(message, now)
            else:
                for message in self.client.read():
                    self._on_response(message, now)

    def _on_push(self, message: Any, now: float) -> None:
        if isinstance(message, UpdateEvent):
            self._delivered(message, now)
        elif isinstance(message, EventBatch):
            for event in message.events:
                self._delivered(event, now)
        elif isinstance(message, SubAck):
            self.acks += 1

    def _delivered(self, event: UpdateEvent, now: float) -> None:
        number = self.inputs.event_number(event.stream, event.seqno)
        if number is None:
            self.unknown_deliveries += 1
            return
        seen = self.received[number]
        if seen == 0:
            self.received_at[number] = now
            self.deliveries += self.inputs.expected[number]
        if seen < 255:
            self.received[number] = seen + 1

    def _on_response(self, message: Any, now: float) -> None:
        if not isinstance(message, InitStateResponse):
            return
        index = self._pending.get((message.client_id, message.issued_at))
        if index is None:
            self.unknown_responses += 1
            return
        if self.answers[index] == 0:
            self.answered_at[index] = now
            self.outstanding -= 1
        if self.answers[index] < 255:
            self.answers[index] += 1
        self.last_generation = message.generation

    def _request(self, due: float, resume: bool) -> None:
        index = len(self.request_due)
        request = InitStateRequest(
            client_id=f"thin{index % CLIENT_POOL}",
            issued_at=due,
            resume_generation=self.last_generation if resume else None,
        )
        self._pending[(request.client_id, due)] = index
        self.request_due.append(due)
        self.answers.append(0)
        self.answered_at.append(0.0)
        self.outstanding += 1
        self.client.write(self._request_encoder.encode_request(request))

    def settle(self, end: int) -> Dict[str, Any]:
        """Pump until the cluster is quiescent with the first ``end``
        source events: every owed delivery and response is in, the
        central replica has applied all of them and every mirror all
        that were mirrored.  Returns the server's counters then."""
        inputs = self.inputs
        owed = inputs.deliveries_before[end]
        mirrored = inputs.mirrored_before[end]
        deadline = time.perf_counter() + _SETTLE_TIMEOUT_S
        while True:
            if self.deliveries >= owed and self.outstanding == 0 and not self.source.backlog:
                state = self.cluster.ask("mark")
                applied = state["processed"]
                if applied[0] >= end and all(n >= mirrored for n in applied[1:]):
                    return state
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"cluster did not settle: {self.deliveries}/{owed} deliveries, "
                    f"{self.outstanding} requests outstanding"
                )
            self.pump(0.005)

    # -- phases ----------------------------------------------------------
    def setup(self) -> Dict[str, float]:
        """Connect, register, preload, warm up, wait for quiescence.
        Returns the generator-side timings of the steps (seconds)."""
        inputs = self.inputs
        t0 = time.perf_counter()
        self.subscriber.write(inputs.subscriber_blob)
        deadline = t0 + _SETTLE_TIMEOUT_S
        while self.acks < len(inputs.predicates):
            if time.perf_counter() > deadline:
                raise RuntimeError("subscriptions were not acknowledged")
            self.subscriber.flush()
            self.pump(0.005)
        t_registered = time.perf_counter()
        self.client.write(
            self._request_encoder.encode_hello(Hello("client", "loadgen-client"))
        )
        self.source.write(inputs.source_hello + inputs.setup_blob)
        self.events_sent = inputs.setup_end
        while self.source.backlog:
            self.pump(0.005)
        for _ in range(inputs.plan.warmup_requests):
            self._request(time.perf_counter(), resume=False)
        self.settle(inputs.setup_end)
        t_quiet = time.perf_counter()
        return {
            "register_s": t_registered - t0,
            "preload_s": t_quiet - t_registered,
        }

    def paced(self) -> PacedResult:
        """The open-loop phase: every unit and request goes out on its
        fixed schedule whatever the server does."""
        inputs = self.inputs
        workload = inputs.workload
        units = inputs.paced_units
        per_unit = workload.batch_size
        seconds = inputs.plan.paced_seconds
        unit_offsets = inputs.unit_offsets
        request_offsets = inputs.request_offsets
        n_requests = len(request_offsets)
        first_request = len(self.request_due)
        result = PacedResult()
        lateness = result.lateness
        unit_due = array("d", bytes(8 * len(units)))
        cluster = self.cluster
        source_write = self.source.write
        clock = time.perf_counter
        never = float("inf")

        own_cpu0 = time.process_time()
        t0 = clock() + 0.02
        cpu_marks = [(t0, cluster.cpu_ns())]
        next_sample = t0 + CPU_WINDOW_S
        iu = ir = 0
        while iu < len(units) or ir < n_requests:
            now = clock()
            due_unit = t0 + unit_offsets[iu] if iu < len(units) else never
            due_request = t0 + request_offsets[ir] if ir < n_requests else never
            if due_unit <= now:
                source_write(units[iu])
                unit_due[iu] = due_unit
                lateness.append(now - due_unit)
                iu += 1
                continue
            if due_request <= now:
                self._request(due_request, resume=workload.resumable and ir % 2 == 1)
                lateness.append(now - due_request)
                ir += 1
                continue
            if next_sample <= now:
                cpu_marks.append((now, cluster.cpu_ns()))
                next_sample += CPU_WINDOW_S
            self.pump(min(due_unit, due_request, next_sample) - clock())
        self.events_sent = inputs.paced_end
        t_end = t0 + seconds
        while clock() < t_end:
            self.pump(t_end - clock())
        cpu_marks.append((clock(), cluster.cpu_ns()))
        result.loadgen_cpu = (time.process_time() - own_cpu0) / (clock() - t0 + 0.02)
        # whatever is still owed has one latency limit to arrive
        owed = inputs.deliveries_before[inputs.paced_end]
        limit = clock() + LATENCY_LIMIT_S
        while (self.deliveries < owed or self.outstanding) and clock() < limit:
            self.pump(0.005)

        for (ta, ca), (tb, cb) in zip(cpu_marks, cpu_marks[1:]):
            if tb - ta > CPU_WINDOW_S / 2:  # the closing mark may sit right on a sample
                result.server_cpu_windows.append((cb - ca) / 1e9 / (tb - ta))
        expected, received, received_at = inputs.expected, self.received, self.received_at
        for number in range(inputs.setup_end, inputs.paced_end):
            if expected[number] and received[number]:
                latency = received_at[number] - unit_due[(number - inputs.setup_end) // per_unit]
                result.update_latencies.append(latency)
                result.late_updates += latency > LATENCY_LIMIT_S
        for index in range(first_request, len(self.request_due)):
            if self.answers[index]:
                latency = self.answered_at[index] - self.request_due[index]
                result.request_latencies.append(latency)
                result.late_responses += latency > LATENCY_LIMIT_S
        result.events_sent = inputs.paced_end - inputs.setup_end
        result.requests_sent = n_requests
        return result

    def burst(self, index: int) -> Tuple[float, float, Dict[str, Any]]:
        """One burst, as fast as TCP back-pressure admits.  Returns
        (seconds from the first byte written to the sentinel's arrival,
        seconds from then until the cluster is quiescent, the server's
        counters when it is)."""
        inputs = self.inputs
        end = inputs.burst_ends[index]
        sentinel = end - 1
        clock = time.perf_counter
        started = clock()
        deadline = started + _SETTLE_TIMEOUT_S
        self.source.write(inputs.burst_blobs[index])
        while not self.received[sentinel]:
            self.pump(1.0)
            if clock() > deadline:
                raise RuntimeError(f"burst {index} never delivered its sentinel")
        self.events_sent = end
        took = self.received_at[sentinel] - started
        t_sentinel = clock()
        state = self.settle(end)
        return took, clock() - t_sentinel, state
