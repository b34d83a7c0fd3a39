"""Asyncio wire transport: :class:`FheServer` behind a real TCP socket.

The ROADMAP's top open item — until now the serving layer only worked
in-process through the synchronous ``submit``/``poll``/``result`` loop,
even though the PR 1 wire format was designed to travel. This module puts
a listener in front of it:

* **Framing** — every connection is a stream of length-prefixed frames
  (``u32`` big-endian length, then that many bytes of one CRC-checked
  wire message from :mod:`repro.service.serialization`). The sans-IO
  :class:`FrameAssembler` does the splitting, so the property suite can
  fuzz the exact code the reader loop runs: truncated, bit-flipped, and
  oversized frames raise :class:`FrameError`/``WireFormatError`` without
  ever crashing the loop.
* **Execution** — the wrapped :class:`~repro.service.server.FheServer`
  is not thread-safe, so the event loop's own thread makes every call on
  it (session opens, job submits, scheduler ticks, result
  serialization) and no other thread touches it. The loop runs the
  math: a frame that arrives during a job is read after that job's
  tick, and the pump yields to the loop between ticks so such frames
  are served before the queue drains.
* **Completion callbacks** — a SUBMIT with ``subscribe`` set (the
  default) registers the connection for an EVENT push: the server's pump
  task drives :meth:`FheServer.tick` and delivers each job's result
  frame between ticks, as soon as that job settles. No client ever
  polls. The EVENT also carries the job's modelled cycles,
  ``model_seconds`` and fidelity.

:meth:`FheTransportServer.serve_socket` serves one already-connected
socket instead of a listener: a fleet worker is served that way, with
the fleet's fault shim as its outbound filter.

In-queue dedupe and the result cache live inside :class:`FheServer`
itself, so remote traffic gets cache-aware scheduling for free — two
clients submitting the identical job share one execution, and each
receives its own completion event.

App circuits ride the same machinery: a SUBMIT_CIRCUIT frame carries a
compiled multi-step program (see :mod:`repro.service.circuits`) plus its
input ciphertexts, the chip pool replays each tensor step per tower,
and the completion EVENT's payload is the framed named-output map — the
full Section VI-C applications served over one socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.service.errors import AuthError, ShuttingDownError
from repro.service.jobs import JobKind, JobStatus
from repro.service.serialization import (
    AdminMsg,
    ErrorMsg,
    EventMsg,
    OpenSessionMsg,
    ResultMsg,
    SessionMsg,
    StatsMsg,
    StatusMsg,
    SubmitCircuitMsg,
    SubmitMsg,
    TraceMsg,
    WireFormatError,
    decode_message,
    encode_message,
    peek_tag,
)
from repro.service.server import FheServer

#: Default ceiling on one frame. Generous for toy/paper parameter sets
#: (an n = 2^13 ciphertext is ~200 KiB) while bounding what a broken or
#: hostile peer can make the reader buffer.
DEFAULT_MAX_FRAME = 16 * 2**20

_LENGTH_BYTES = 4
_READ_CHUNK = 1 << 16
_SETTLED = (JobStatus.DONE, JobStatus.FAILED)


class FrameError(WireFormatError):
    """Malformed stream framing: oversized or truncated frames."""


def encode_frame(message: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Length-prefix one wire message for the stream."""
    if len(message) > max_frame:
        raise FrameError(
            f"frame of {len(message)} bytes exceeds the {max_frame}-byte limit"
        )
    return len(message).to_bytes(_LENGTH_BYTES, "big") + message


class FrameAssembler:
    """Sans-IO splitter: feed stream chunks, get back complete frames.

    Carries partial frames across ``feed`` calls, so arbitrary TCP
    segmentation reassembles identically. An announced length above
    ``max_frame`` raises :class:`FrameError` immediately — before any
    of the oversized body is buffered.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        self._buffer.extend(data)
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < _LENGTH_BYTES:
                return frames
            length = int.from_bytes(self._buffer[:_LENGTH_BYTES], "big")
            if length > self.max_frame:
                raise FrameError(
                    f"peer announced a {length}-byte frame "
                    f"(limit {self.max_frame})"
                )
            end = _LENGTH_BYTES + length
            if len(self._buffer) < end:
                return frames
            frames.append(bytes(self._buffer[_LENGTH_BYTES:end]))
            del self._buffer[:end]


async def frame_stream(reader: asyncio.StreamReader,
                       max_frame: int = DEFAULT_MAX_FRAME):
    """Yield complete frames from a stream until EOF.

    EOF on a frame boundary ends the iteration; EOF mid-frame raises
    :class:`FrameError` (the peer died mid-message).
    """
    assembler = FrameAssembler(max_frame)
    while True:
        chunk = await reader.read(_READ_CHUNK)
        if not chunk:
            if assembler.buffered:
                raise FrameError(
                    f"connection closed mid-frame "
                    f"({assembler.buffered} bytes buffered)"
                )
            return
        for frame in assembler.feed(chunk):
            yield frame


async def write_frame(writer: asyncio.StreamWriter, message: bytes,
                      max_frame: int = DEFAULT_MAX_FRAME) -> None:
    writer.write(encode_frame(message, max_frame))
    await writer.drain()


def _short(message: str, limit: int = 2000) -> str:
    """Bound an error string so it always fits a wire string field."""
    return message if len(message) <= limit else message[: limit - 1] + "…"


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------


@dataclass
class _PendingJob:
    """Delivery bookkeeping for one not-yet-completed job."""

    job_id: str
    subscriber: "_Connection | None" = None
    #: RESULT requests waiting on completion: (connection, request_id).
    waiters: list[tuple["_Connection", int]] = field(default_factory=list)
    #: The connection whose submit window this job occupies (None when
    #: the submitter imposed no window or the entry came from RESULT).
    origin: "_Connection | None" = None


#: A filter over one link's outbound frames: the bytes to write, or
#: ``None`` to drop the frame (see :meth:`FheTransportServer.serve_socket`).
Outbound = Callable[[bytes], "bytes | None"]


class _Connection:
    """One accepted client link; writes are serialized by a lock so the
    pump task and the dispatch path never interleave frames."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, max_frame: int,
                 metrics=None, outbound: Outbound | None = None):
        self.reader = reader
        self.writer = writer
        self.max_frame = max_frame
        self.metrics = metrics
        self.outbound = outbound
        self._write_lock = asyncio.Lock()
        #: Accepted-but-unsettled submissions from this link (the
        #: backpressure window counts these, never queued frames).
        self.inflight = 0
        #: Set whenever ``inflight`` drops — wakes a stalled submit.
        self.drained = asyncio.Event()

    async def send(self, message: bytes) -> None:
        if self.outbound is not None:
            message = self.outbound(message)
            if message is None:
                return
        async with self._write_lock:
            await write_frame(self.writer, message, self.max_frame)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_frames_sent_total", "wire frames written to clients"
            ).inc()
            self.metrics.counter(
                "repro_frame_bytes_sent_total",
                "wire payload bytes written to clients",
            ).inc(len(message))

    async def send_safe(self, message: bytes) -> bool:
        """Best-effort send: a dead peer must not break delivery to the
        rest of the pool. Returns whether the write went through."""
        try:
            await self.send(message)
            return True
        except (ConnectionError, RuntimeError, OSError, WireFormatError):
            return False

    async def close(self) -> None:
        with contextlib.suppress(Exception):
            self.writer.close()
            await self.writer.wait_closed()


class FheTransportServer:
    """Asyncio TCP front door for an :class:`FheServer`.

    Args:
        fhe: the server to expose; a default :class:`FheServer` when
            omitted.
        host/port: listen address (``port=0`` picks an ephemeral port;
            :meth:`start` returns the bound address).
        max_frame: per-frame byte ceiling on every connection.
        max_inflight: per-connection submit window — a connection may
            have at most this many accepted-but-unsettled jobs; further
            SUBMIT frames stall (the reader stops consuming, so TCP
            pushes back on the flooding client) until one settles and
            its completion is delivered. ``0`` (the default) disables
            the window. No accepted job is ever dropped.
        tenants: per-tenant auth table ``{tenant: token}``. When set,
            every OPEN_SESSION must carry the matching token; unknown
            tenants and wrong tokens are rejected with the terminal
            ``auth`` error code before any server state is touched.
            ``None`` (the default) disables auth — open serving, as
            before this field existed.

    The server's calls all run on the thread that runs this object's
    event loop, one at a time: a job's tick holds the loop, and the
    frames that arrive meanwhile are read when it ends.

    Lifecycle: ``await start()`` → serve → ``await aclose()``. Closing
    drains by default: the listener stops accepting, in-flight jobs run
    to completion, and every subscribed client receives its completion
    event before the connections come down.
    """

    def __init__(self, fhe: FheServer | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 max_inflight: int = 0,
                 tenants: dict[str, str] | None = None):
        if max_inflight < 0:
            raise ValueError("max_inflight must be >= 0 (0 disables it)")
        self.fhe = fhe if fhe is not None else FheServer()
        self._host = host
        self._port = port
        self._max_frame = max_frame
        self._max_inflight = max_inflight
        self._tenants = dict(tenants) if tenants is not None else None
        self._server: asyncio.AbstractServer | None = None
        self._pending: dict[str, _PendingJob] = {}
        self._pump_task: asyncio.Task | None = None
        self._connections: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._closing = False
        self._paused = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listener; returns the (host, port) actually bound."""
        if self._server is not None:
            raise RuntimeError("transport server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._host, self._port = self._server.sockets[0].getsockname()[:2]
        return self._host, self._port

    async def serve_socket(self, sock: socket.socket,
                           outbound: Outbound | None = None) -> None:
        """Serve one already-connected stream socket until it closes.

        No listener is bound: this is how a fleet worker serves the
        router holding the other end of its socketpair. ``outbound``, if
        given, sees every frame this link sends and returns the bytes to
        write, or ``None`` to drop the frame (the fleet's fault shim).
        """
        reader, writer = await asyncio.open_connection(sock=sock)
        await self._handle_connection(reader, writer, outbound)

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self, drain: bool = True) -> None:
        """Stop accepting, settle in-flight work, close every link.

        With ``drain`` (the default) queued and running jobs execute to
        completion and their events/results are delivered first; without
        it, undelivered jobs get a failure event instead.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            self._paused = False
            if self._pending:
                self._ensure_pump()
            if self._pump_task is not None:
                await self._pump_task
        else:
            if self._pump_task is not None:
                self._pump_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._pump_task
            await self._abandon_pending("server closed without draining")
        tasks = list(self._conn_tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for conn in list(self._connections):
            await conn.close()
        self._connections.clear()
        self.fhe.close()  # its backends: fleet worker processes

    async def __aenter__(self) -> "FheTransportServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- execution pump ------------------------------------------------

    def pause_execution(self) -> None:
        """Hold the scheduler: submissions queue but nothing executes.

        Drain/maintenance control — and the deterministic way to land
        several identical submissions in the in-queue dedupe window.
        """
        self._paused = True

    def resume_execution(self) -> None:
        self._paused = False
        if self._pending:
            self._ensure_pump()

    def _ensure_pump(self) -> None:
        if self._paused:
            return
        if self._pump_task is None or self._pump_task.done():
            self._pump_task = asyncio.ensure_future(self._pump())

    async def _pump(self) -> None:
        """Tick, push the settled jobs' completions, yield; until idle.

        The yield lets the loop serve a frame that arrived during a tick
        (a STATS ping, a submit, an auth reject) before the queue drains,
        but not before the next tick: ``asyncio.sleep(0)`` queues the
        pump's wake-up ahead of the selector's read callback, and the
        connection's reader task runs one loop iteration after that, so
        a frame that arrives during tick k is served after tick k + 2.
        """
        while not self._paused:
            progressed = self.fhe.tick()
            settled = [job_id for job_id in self._pending
                       if self.fhe.status(job_id) in _SETTLED]
            for job_id in settled:
                await self._deliver(self._pending.pop(job_id),
                                    self._completion_for(job_id))
            if not self._pending and not progressed:
                return
            if not progressed:
                # Pending deliveries but an idle scheduler: every tracked
                # job should have settled above. Anything left is a
                # server bug — fail it rather than spin.
                await self._abandon_pending("job never completed")
                return
            await asyncio.sleep(0)

    # -- backpressure ---------------------------------------------------

    async def _admit(self, conn: _Connection) -> None:
        """Hold a submit until the connection's window has room.

        Stalling here stalls the connection's reader loop — frames stop
        being consumed, the socket buffer fills, and TCP pushes back on
        the flooding client. Every frame already read is still served in
        order; nothing accepted is dropped. The short wait timeout makes
        the loop robust against set/clear races with the delivery path.
        """
        if self._max_inflight <= 0:
            return
        metrics = self.fhe.metrics
        stalled = False
        while conn.inflight >= self._max_inflight and not self._closing:
            if not stalled:
                stalled = True
                metrics.counter(
                    "repro_backpressure_stalls_total",
                    "submits stalled on a full per-connection window",
                ).inc()
                metrics.gauge(
                    "repro_backpressure_waiting",
                    "connections currently stalled on their window",
                ).inc()
            conn.drained.clear()
            self._ensure_pump()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(conn.drained.wait(), 0.05)
        if stalled:
            metrics.gauge(
                "repro_backpressure_waiting",
                "connections currently stalled on their window",
            ).dec()

    def _occupy(self, entry: _PendingJob, conn: _Connection) -> None:
        """Charge a tracked job to its submitter's window."""
        if self._max_inflight <= 0 or entry.origin is not None:
            return
        entry.origin = conn
        conn.inflight += 1

    @staticmethod
    def _release(entry: _PendingJob) -> None:
        """Return a settled job's window slot and wake stalled submits."""
        conn = entry.origin
        if conn is None:
            return
        entry.origin = None
        conn.inflight -= 1
        conn.drained.set()

    async def _deliver(self, entry: _PendingJob, event: EventMsg) -> None:
        """Push one completion: the subscriber's EVENT (exactly once per
        job) plus a RESULT reply per registered waiter."""
        self._release(entry)
        start = time.perf_counter()
        delivered = False
        if entry.subscriber is not None:
            await entry.subscriber.send_safe(encode_message(event))
            delivered = True
        for conn, request_id in entry.waiters:
            await conn.send_safe(encode_message(ResultMsg(
                request_id=request_id, job_id=event.job_id,
                status=event.status, payload=event.payload, error=event.error,
            )))
            delivered = True
        if delivered:
            with contextlib.suppress(KeyError):
                self.fhe.job_trace(event.job_id).mark(
                    "reply", start, time.perf_counter()
                )

    async def _abandon_pending(self, reason: str) -> None:
        for job_id in list(self._pending):
            entry = self._pending.pop(job_id)
            await self._deliver(entry, EventMsg(
                job_id=job_id, status=JobStatus.FAILED.value,
                error=_short(reason),
            ))

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter,
                                 outbound: Outbound | None = None) -> None:
        metrics = self.fhe.metrics
        conn = _Connection(reader, writer, self._max_frame, metrics, outbound)
        self._connections.add(conn)
        metrics.gauge(
            "repro_connections", "currently accepted client links"
        ).inc()
        frames_in = metrics.counter(
            "repro_frames_received_total", "wire frames read from clients"
        )
        bytes_in = metrics.counter(
            "repro_frame_bytes_received_total",
            "wire payload bytes read from clients",
        )
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            async for frame in frame_stream(reader, self._max_frame):
                frames_in.inc()
                bytes_in.inc(len(frame))
                await self._dispatch(conn, frame)
        except WireFormatError as exc:
            # Framing or codec failure: the stream can no longer be
            # trusted. Tell the peer (request id 0 = connection-level)
            # and drop the link; the server itself keeps serving.
            await conn.send_safe(encode_message(ErrorMsg(
                request_id=0, message=_short(f"protocol error: {exc}")
            )))
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # peer vanished; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown; finally-block cleanup still runs
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._connections.discard(conn)
            self._drop_subscriber(conn)
            metrics.gauge(
                "repro_connections", "currently accepted client links"
            ).dec()
            await conn.close()

    def _drop_subscriber(self, conn: _Connection) -> None:
        """Forget a dead connection in every pending delivery record."""
        for entry in self._pending.values():
            if entry.subscriber is conn:
                entry.subscriber = None
            if entry.origin is conn:
                self._release(entry)
            entry.waiters = [(c, r) for c, r in entry.waiters if c is not conn]

    async def _dispatch(self, conn: _Connection, frame: bytes) -> None:
        msg = decode_message(frame)
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            raise WireFormatError(
                f"unexpected client frame tag 0x{peek_tag(frame):02x}"
            )
        await handler(self, conn, msg)

    async def _fail(self, conn: _Connection, request_id: int,
                    exc: Exception) -> None:
        await conn.send_safe(encode_message(ErrorMsg(
            request_id=request_id, message=_short(str(exc) or repr(exc)),
            code=getattr(exc, "code", ""),
        )))

    def _authorize(self, msg: OpenSessionMsg) -> None:
        """Check the OPEN_SESSION token against the tenant table.

        ``compare_digest`` keeps the comparison constant-time; unknown
        tenants burn the same comparison against a dummy so the two
        rejections are not distinguishable by timing.
        """
        if self._tenants is None:
            return
        expected = self._tenants.get(msg.tenant)
        supplied = msg.token.encode()
        if expected is None:
            hmac.compare_digest(supplied, b"\x00" * 32)
            raise AuthError(f"unknown tenant {msg.tenant!r}")
        if not hmac.compare_digest(supplied, expected.encode()):
            raise AuthError(f"bad token for tenant {msg.tenant!r}")

    async def _on_open_session(self, conn: _Connection,
                               msg: OpenSessionMsg) -> None:
        if self._closing:
            await self._fail(conn, msg.request_id,
                             ShuttingDownError("server is shutting down"))
            return
        try:
            self._authorize(msg)
        except AuthError as exc:
            self.fhe.metrics.counter(
                "repro_auth_rejections_total",
                "OPEN_SESSION frames refused by the tenant auth table",
                tenant=msg.tenant,
            ).inc()
            await self._fail(conn, msg.request_id, exc)
            return
        try:
            session_id = self.fhe.open_session(
                msg.tenant, msg.params, public_key=msg.public_key,
                relin_key=msg.relin_key, galois_keys=msg.galois_keys,
            )
        except Exception as exc:
            await self._fail(conn, msg.request_id, exc)
            return
        await conn.send_safe(encode_message(SessionMsg(
            request_id=msg.request_id, session_id=session_id
        )))

    async def _on_submit(self, conn: _Connection,
                         msg: SubmitMsg | SubmitCircuitMsg) -> None:
        await self._admit(conn)
        try:
            if self._closing:
                raise ShuttingDownError("server is shutting down")
            if isinstance(msg, SubmitCircuitMsg):
                kind, steps, payload = JobKind.CIRCUIT, 0, msg.circuit
            else:
                kind, steps, payload = JobKind(msg.kind), msg.steps, None
                if kind is JobKind.CIRCUIT:
                    raise ValueError(
                        "circuit jobs travel as SUBMIT_CIRCUIT frames, "
                        "not SUBMIT"
                    )
            job_id = self.fhe.submit(
                msg.session_id, kind, msg.operands, steps=steps,
                payload=payload, backend=msg.backend, deadline=msg.deadline,
            )
        except Exception as exc:
            await self._fail(conn, msg.request_id, exc)
            return
        status = self.fhe.status(job_id)
        await conn.send_safe(encode_message(StatusMsg(
            request_id=msg.request_id, job_id=job_id, status=status.value
        )))
        if status in _SETTLED:
            # Cache hit (or submit-time failure): the completion event
            # follows the STATUS reply immediately — still exactly once.
            if msg.subscribe:
                await self._deliver(_PendingJob(job_id, subscriber=conn),
                                    self._completion_for(job_id))
            return
        entry = self._pending.get(job_id)
        if entry is None:
            entry = self._pending[job_id] = _PendingJob(job_id)
        if msg.subscribe:
            entry.subscriber = conn
        self._occupy(entry, conn)
        self._ensure_pump()

    def _completion_for(self, job_id: str) -> EventMsg:
        """Completion event for one already-settled job.

        A failed job's event still carries the cycles it executed, so a
        fleet router counts them as the worker's chip pool did."""
        status = self.fhe.status(job_id)
        metrics = self.fhe.job_metrics(job_id)
        if status is JobStatus.DONE:
            return EventMsg(
                job_id=job_id, status=status.value,
                payload=self.fhe.result(job_id),
                cycles=metrics.cycles, model_seconds=metrics.model_seconds,
                fidelity=metrics.fidelity,
            )
        return EventMsg(
            job_id=job_id, status=JobStatus.FAILED.value,
            error=_short(self.fhe.job_error(job_id) or "job failed"),
            cycles=metrics.cycles,
        )

    async def _on_status(self, conn: _Connection, msg: StatusMsg) -> None:
        try:
            status = self.fhe.status(msg.job_id)
        except KeyError as exc:
            await self._fail(conn, msg.request_id, exc)
            return
        error = None
        if status is JobStatus.FAILED:
            error = self.fhe.job_error(msg.job_id)
        await conn.send_safe(encode_message(StatusMsg(
            request_id=msg.request_id, job_id=msg.job_id,
            status=status.value, error=_short(error or ""),
        )))

    async def _on_result(self, conn: _Connection, msg: ResultMsg) -> None:
        try:
            status = self.fhe.status(msg.job_id)
        except KeyError as exc:
            await self._fail(conn, msg.request_id, exc)
            return
        if status in _SETTLED:
            event = self._completion_for(msg.job_id)
            await conn.send_safe(encode_message(ResultMsg(
                request_id=msg.request_id, job_id=msg.job_id,
                status=event.status, payload=event.payload, error=event.error,
            )))
            return
        entry = self._pending.get(msg.job_id)
        if entry is None:
            entry = self._pending[msg.job_id] = _PendingJob(msg.job_id)
        entry.waiters.append((conn, msg.request_id))
        self._ensure_pump()

    async def _on_stats(self, conn: _Connection, msg: StatsMsg) -> None:
        await conn.send_safe(encode_message(StatsMsg(
            request_id=msg.request_id, text=self.fhe.stats_text()
        )))

    async def _on_trace(self, conn: _Connection, msg: TraceMsg) -> None:
        try:
            trace = self.fhe.job_trace(msg.job_id)
        except KeyError as exc:
            await self._fail(conn, msg.request_id, exc)
            return
        await conn.send_safe(encode_message(TraceMsg(
            request_id=msg.request_id, job_id=msg.job_id,
            wall_seconds=trace.wall_seconds,
            spans=tuple(
                (s.phase, s.parent, s.start, s.end) for s in trace.spans
            ),
        )))

    async def _on_admin(self, conn: _Connection, msg: AdminMsg) -> None:
        """Elastic fleet control over the wire: grow/shrink/resize.

        Replies with an ADMIN echo whose ``value`` is the fleet size
        after the operation. Requires the server to be fleet-backed.
        """
        fleet = getattr(self.fhe, "fleet", None)
        if fleet is None:
            await self._fail(conn, msg.request_id, RuntimeError(
                "server has no fleet backend to resize"
            ))
            return
        try:
            if msg.command == "grow":
                size = fleet.grow(max(1, msg.value))
            elif msg.command == "shrink":
                size = fleet.shrink(max(1, msg.value))
            elif msg.command == "resize":
                size = fleet.resize(msg.value)
            else:
                raise ValueError(
                    f"unknown admin command {msg.command!r} "
                    "(supported: grow, shrink, resize)"
                )
        except Exception as exc:
            await self._fail(conn, msg.request_id, exc)
            return
        await conn.send_safe(encode_message(AdminMsg(
            request_id=msg.request_id, command=msg.command,
            value=size, result="ok",
        )))

    #: Client message type -> handler; any other type is a protocol error.
    _HANDLERS = {
        OpenSessionMsg: _on_open_session,
        SubmitMsg: _on_submit,
        SubmitCircuitMsg: _on_submit,
        StatusMsg: _on_status,
        ResultMsg: _on_result,
        StatsMsg: _on_stats,
        TraceMsg: _on_trace,
        AdminMsg: _on_admin,
    }

    async def stats_snapshot(self) -> dict:
        """Structured metrics snapshot (the ``repro-serve
        --stats-interval`` logger's data source); call it on the loop."""
        return self.fhe.stats_snapshot()


# ----------------------------------------------------------------------
# Thread-hosted server (sync callers: examples, benchmarks, tests)
# ----------------------------------------------------------------------


class ThreadedTransportServer:
    """Run a :class:`FheTransportServer` on a background event loop.

    Context manager for synchronous callers — examples, benchmarks, and
    tests driving the sync
    :class:`~repro.service.client.FheClient`::

        with ThreadedTransportServer(FheServer(pool_size=4)) as ts:
            client = FheClient(ts.host, ts.port)
            ...

    ``fhe`` and the keyword arguments go to :class:`FheTransportServer`.
    The wrapped :class:`FheServer` is reachable as ``.fhe`` for
    in-process inspection (``pool_report()`` and friends) after the
    traffic has drained.
    """

    def __init__(self, fhe: FheServer | None = None, **kwargs):
        self._fhe = fhe
        self._kwargs = kwargs
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.server: FheTransportServer | None = None
        self.host = ""
        self.port = 0

    @property
    def fhe(self) -> FheServer:
        assert self.server is not None, "server not started"
        return self.server.fhe

    def __enter__(self) -> "ThreadedTransportServer":
        started = threading.Event()
        failure: list[BaseException] = []

        async def _main():
            try:
                self.server = FheTransportServer(self._fhe, **self._kwargs)
                self.host, self.port = await self.server.start()
            except BaseException as exc:  # surface to the caller
                failure.append(exc)
                raise
            finally:
                started.set()

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="fhe-transport", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(_main(), self._loop)
        started.wait()
        if failure:
            self._stop_loop()
            raise failure[0]
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._loop is not None
        if self.server is not None:
            asyncio.run_coroutine_threadsafe(
                self.server.aclose(), self._loop
            ).result(timeout=120)
        self._stop_loop()

    def _stop_loop(self) -> None:
        assert self._loop is not None and self._thread is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
