"""The serving stacks a workload can drive, behind one interface.

* :class:`InprocStack` — ``FheServer.submit/result`` in the harness
  process (optionally with a process fleet behind the front door);
* :class:`TcpStack` — ``FheClient`` over one localhost connection to a
  ``FheTransportServer`` hosted on a loop thread of the harness process.

Each is built exactly as a user of the library would build it: library
defaults, wire bytes in, wire bytes out. ``drain`` reports, per job, the
instant its result bytes were in the client's hands.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

from repro.service.client import FheClient, JobFailedError
from repro.service.jobs import JobKind, JobStatus
from repro.service.server import FheServer
from repro.service.transport import FheTransportServer

_SETTLED = (JobStatus.DONE, JobStatus.FAILED)


class Tracer:
    """In-memory harness spans: name, start, end, parent, request id.

    Spans are recorded by the benchmark around its calls into each
    layer, kept in memory, and written out once when the run ends.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: str = ""):
        index = len(self.spans)
        record = {
            "name": name, "request": request,
            "parent": self._open[-1] if self._open else -1,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]


class NullTracer:
    """Tracing off: the end-to-end runs pay nothing for spans."""

    @contextlib.contextmanager
    def span(self, name: str, request: str = ""):
        yield None


class InprocStack:
    """``FheServer`` driven directly; ``fleet_size`` adds process workers."""

    layer = "server"

    def __init__(self, tracer=None, fleet_size: int = 0):
        self.tracer = tracer or NullTracer()
        self.backend = "fleet" if fleet_size else ""
        if fleet_size:
            self.layer = "fleet"
            self.server = FheServer(fleet_size=fleet_size)
        else:
            self.server = FheServer()
        self.sessions: list[str] = []

    def open(self, tenants) -> None:
        for tenant in tenants:
            self.sessions.append(self.server.open_session(
                tenant.name, tenant.params_wire,
                relin_key=tenant.relin_wire, galois_keys=tenant.galois_wire,
            ))

    def submit(self, tenant: int, operands: tuple[bytes, ...],
               circuit: bytes | None, request: str = "") -> str:
        with self.tracer.span(f"{self.layer}.submit", request):
            if circuit is None:
                return self.server.submit(
                    self.sessions[tenant], JobKind.MULTIPLY, operands,
                    backend=self.backend,
                )
            return self.server.submit(
                self.sessions[tenant], JobKind.CIRCUIT, operands,
                payload=circuit, backend=self.backend,
            )

    def submit_wave(self, requests: list[tuple]) -> list[str]:
        return [self.submit(*request) for request in requests]

    def drain(self, job_ids: list[str]) -> dict[str, tuple]:
        """Drive the scheduler until every job settled.

        Returns ``{job_id: (t_done, payload, error)}``; a job is done
        when its result *bytes* are in hand, as a remote client would
        count it.
        """
        done: dict[str, tuple] = {}
        pending = list(job_ids)
        with self.tracer.span(f"{self.layer}.result"):
            while pending:
                progressed = self.server.tick()
                waiting = []
                for job_id in pending:
                    if self.server.status(job_id) in _SETTLED:
                        done[job_id] = self._collect(job_id)
                    elif progressed:
                        waiting.append(job_id)
                    else:
                        done[job_id] = (
                            time.perf_counter(), None, "scheduler went idle"
                        )
                pending = waiting
        return done

    def _collect(self, job_id: str) -> tuple:
        try:
            payload = self.server.result(job_id)
        except RuntimeError as exc:
            return time.perf_counter(), None, str(exc)
        return time.perf_counter(), payload, None

    def cycles(self, job_id: str) -> int:
        return self.server.job_metrics(job_id).cycles

    @property
    def fhe(self) -> FheServer:
        return self.server

    def transport_counters(self) -> dict:
        return {}

    def close(self) -> None:
        self.server.close()


class _LoopThread:
    """An asyncio loop on a daemon thread that the harness owns.

    ``ThreadedTransportServer`` is the same thing with the loop kept
    private; the harness needs to schedule ``resume_execution`` on the
    server's loop, so it hosts :class:`FheTransportServer` itself
    through nothing but public calls.
    """

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="bench-transport", daemon=True
        )
        self._thread.start()

    def run(self, coro, timeout: float = 120.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()


class TcpStack:
    """One ``FheClient`` connection to a transport server in this process.

    A wave of several jobs is submitted with the server's scheduler
    held (``pause_execution``) and released once the last SUBMIT is
    acknowledged: the wave is one batch by construction. Left alone, the
    pump starts on the first submit and the other three land in batches
    of ``1+2+1`` or ``1+3`` by a race between the client's round trips
    and the server's pump; which one wins is sticky within a process
    and moved ``latency_mean_ms`` by 20 % between runs of the same code.
    """

    layer = "transport"

    def __init__(self, tracer=None):
        self.tracer = tracer or NullTracer()
        self._host = _LoopThread()
        self._server = FheTransportServer()
        host, port = self._host.run(self._server.start())
        self.client = FheClient(host, port)
        self.sessions: list[str] = []
        self._done_at: dict[str, float] = {}

    def open(self, tenants) -> None:
        for tenant in tenants:
            self.sessions.append(self.client.open_session(
                tenant.name, tenant.params_wire,
                relin_key=tenant.relin_wire, galois_keys=tenant.galois_wire,
            ))

    def _stamp(self, event) -> None:
        # Runs on the client's loop thread the moment the EVENT frame
        # (which carries the result bytes) has been decoded.
        self._done_at.setdefault(event.job_id, time.perf_counter())

    def submit(self, tenant: int, operands: tuple[bytes, ...],
               circuit: bytes | None, request: str = "") -> str:
        with self.tracer.span("transport.submit", request):
            if circuit is None:
                return self.client.submit(
                    self.sessions[tenant], JobKind.MULTIPLY, operands,
                    on_done=self._stamp,
                )
            return self.client.submit_circuit(
                self.sessions[tenant], circuit, operands,
                on_done=self._stamp,
            )

    def submit_wave(self, requests: list[tuple]) -> list[str]:
        if len(requests) == 1:
            return [self.submit(*requests[0])]
        self._server.pause_execution()
        try:
            return [self.submit(*request) for request in requests]
        finally:
            self._host.loop.call_soon_threadsafe(
                self._server.resume_execution
            )

    def drain(self, job_ids: list[str]) -> dict[str, tuple]:
        done: dict[str, tuple] = {}
        with self.tracer.span("transport.result"):
            for job_id in job_ids:
                try:
                    payload, error = self.client.result(job_id), None
                except JobFailedError as exc:
                    payload, error = None, str(exc)
                done[job_id] = (
                    self._done_at.get(job_id, time.perf_counter()),
                    payload, error,
                )
        return done

    def cycles(self, job_id: str) -> int:
        return self._server.fhe.job_metrics(job_id).cycles

    @property
    def fhe(self) -> FheServer:
        return self._server.fhe

    def transport_counters(self) -> dict:
        """Frame/byte/backpressure counters from ``stats_snapshot()``."""
        return self._host.run(self._server.stats_snapshot())

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            # aclose also closes the wrapped FheServer.
            self._host.run(self._server.aclose())
            self._host.close()
