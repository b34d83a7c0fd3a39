"""Client side of the wire transport: async core plus a sync facade.

:class:`AsyncFheClient` multiplexes one TCP connection: requests carry a
client-chosen id echoed by the reply, and a background reader task routes
every incoming frame — replies resolve their request future, EVENT pushes
resolve job futures and fire the registered completion callbacks. Nothing
polls: ``await client.result(job_id)`` parks on the job's future until
the server pushes its completion event.

:class:`FheClient` wraps the async core for synchronous callers (apps,
benchmarks, tests): it hosts a private
event loop on a daemon thread and bridges every call with
``run_coroutine_threadsafe``. Completion callbacks run on that loop
thread — keep them short and thread-safe.

With a :class:`RetryPolicy` the client rides out transient rejections
and dead links: retryable ERROR codes (``quota``, ``unavailable``) back
off with jittered exponential delays and resend, and a connection that
dies while results are outstanding is reconnected and the recorded
submissions resent. Resubmission is exactly-once-safe by construction —
the server content-addresses results and dedupes identical in-queue
jobs, so a resent submission either joins the original execution or
replays its cached result, never computes twice. Job-level failures
(``deadline``, math errors) are terminal and never retried.

Keys stay client-side, as everywhere in the serving layer: the client
sends parameter sets, *evaluation* keys, and ciphertext bytes; secret
keys have no wire encoding at all.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import random
import threading
from dataclasses import dataclass
from typing import Callable

from repro.bfv.params import BfvParameters
from repro.bfv.scheme import Ciphertext
from repro.service.circuits import Circuit
from repro.service.errors import DEADLINE_EXPIRED, RETRYABLE_CODES
from repro.service.jobs import JobKind
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
    serialize_ciphertext,
    serialize_circuit,
    serialize_params,
)
from repro.service.transport import (
    DEFAULT_MAX_FRAME,
    frame_stream,
    write_frame,
)


class TransportError(RuntimeError):
    """The server answered a request with an ERROR frame.

    ``code`` is the wire error code (``auth``, ``quota``,
    ``unavailable``, or ``""`` for untyped failures); ``retryable`` says
    whether backing off and resending the same request can succeed.
    """

    def __init__(self, message: str, code: str = ""):
        super().__init__(message)
        self.code = code

    @property
    def retryable(self) -> bool:
        return self.code in RETRYABLE_CODES


class JobFailedError(TransportError):
    """A submitted job finished in the FAILED state (always terminal).

    ``kind`` classifies the failure: ``"deadline"`` when the job's
    deadline expired (queued or in flight), ``""`` otherwise.
    """

    def __init__(self, job_id: str, message: str):
        super().__init__(f"job {job_id} failed: {message}")
        self.job_id = job_id
        self.kind = "deadline" if message.startswith(DEADLINE_EXPIRED) else ""


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for retryable transport failures.

    Attempt ``i`` (0-based) waits ``min(max_delay, base_delay *
    multiplier**i)`` scaled down by up to ``jitter`` (uniformly), then
    resends. ``attempts`` bounds total tries including the first; a
    fixed ``seed`` makes the delay sequence deterministic for tests.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def delays(self) -> list[float]:
        """The between-attempt waits (``attempts - 1`` of them)."""
        rng = random.Random(self.seed)
        out = []
        for i in range(max(0, self.attempts - 1)):
            delay = min(self.max_delay, self.base_delay * self.multiplier**i)
            out.append(delay * (1.0 - self.jitter * rng.random()))
        return out


#: Completion callbacks receive the decoded EVENT for their job.
DoneCallback = Callable[[EventMsg], None]


class _ClientJob:
    """Per-job completion state: one future, any number of callbacks.

    ``events`` counts completion EVENT frames seen for the job — the
    exactly-once tests read it; a correct server leaves it at 1.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.future: asyncio.Future[EventMsg] = loop.create_future()
        self.callbacks: list[DoneCallback] = []
        self.events = 0

    def add_callback(self, callback: DoneCallback) -> None:
        if self.future.done():
            callback(self.future.result())
        else:
            self.callbacks.append(callback)

    def deliver(self, event: EventMsg) -> None:
        self.events += 1
        if not self.future.done():
            self.future.set_result(event)
        # Callbacks fire once per received event on purpose: a server
        # that double-delivers shows up in the exactly-once battery.
        for callback in self.callbacks:
            callback(event)


def _wire_operands(operands) -> tuple[bytes, ...]:
    out = []
    for op in operands:
        if isinstance(op, (bytes, bytearray)):
            out.append(bytes(op))
        elif isinstance(op, Ciphertext):
            out.append(serialize_ciphertext(op))
        else:
            raise TypeError(
                f"operands must be wire bytes or Ciphertext, got {type(op)!r}"
            )
    return tuple(out)


#: Server messages that answer a request (matched by ``request_id``).
_REPLY_TYPES = frozenset(
    {SessionMsg, StatusMsg, ResultMsg, StatsMsg, TraceMsg, AdminMsg, ErrorMsg}
)


class AsyncFheClient:
    """One multiplexed connection to a :class:`FheTransportServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 retry: "RetryPolicy | None" = None):
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self._retry = retry
        self._loop = asyncio.get_running_loop()
        self._request_ids = itertools.count(1)
        self._replies: dict[int, asyncio.Future] = {}
        self._jobs: dict[str, _ClientJob] = {}
        #: job_id → resubmittable record, for reconnect-and-resubmit.
        self._submissions: dict[str, tuple] = {}
        self._closed = False
        #: Dial-back address; empty when built on a raw stream (then
        #: connection loss is terminal — there is nowhere to redial).
        self._host = ""
        self._port = 0
        self._reconnect_lock = asyncio.Lock()
        #: Successful redials — the chaos battery reads this.
        self.reconnects = 0
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      max_frame: int = DEFAULT_MAX_FRAME,
                      retry: "RetryPolicy | None" = None,
                      ) -> "AsyncFheClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, max_frame, retry)
        client._host, client._port = host, port
        return client

    # -- frame routing -------------------------------------------------

    async def _read_loop(self) -> None:
        exc: Exception = ConnectionError("connection closed by server")
        try:
            async for frame in frame_stream(self._reader, self._max_frame):
                self._route(frame)
        except Exception as caught:  # noqa: BLE001 — fail all waiters below
            exc = caught
        finally:
            self._fail_outstanding(exc)

    def _route(self, frame: bytes) -> None:
        msg = decode_message(frame)
        if type(msg) is EventMsg:
            # The server may push the EVENT right behind the SUBMIT reply
            # (cache hits do), so both can land in one read chunk —
            # before the submit() coroutine has resumed to register the
            # job. Create the record here; submit()'s setdefault adopts
            # it and sees the already-resolved future.
            self._jobs.setdefault(
                msg.job_id, _ClientJob(self._loop)
            ).deliver(msg)
            return
        if type(msg) not in _REPLY_TYPES:
            raise WireFormatError(
                f"unexpected server frame tag 0x{peek_tag(frame):02x}"
            )
        if type(msg) is ErrorMsg and msg.request_id == 0:
            # Connection-level protocol error: everything in flight is
            # dead; the server is closing the link.
            self._fail_outstanding(TransportError(msg.message, msg.code))
            return
        future = self._replies.pop(msg.request_id, None)
        if future is None or future.done():
            return
        if type(msg) is ErrorMsg:
            future.set_exception(TransportError(msg.message, msg.code))
        else:
            future.set_result(msg)

    def _fail_outstanding(self, exc: Exception) -> None:
        for future in self._replies.values():
            if not future.done():
                future.set_exception(exc)
        self._replies.clear()
        for job in self._jobs.values():
            if not job.future.done():
                job.future.set_exception(exc)
                # result() still raises it; a job nobody awaits (its
                # owner only had callbacks) must not warn at teardown.
                job.future.exception()

    async def _request(self, msg_type: type, **fields):
        """Send ``msg_type(request_id=<fresh>, **fields)``; await its reply."""
        if self._closed:
            raise TransportError("client is closed")
        if self._reader_task.done():
            # Nothing would ever answer: fail now instead of hanging.
            raise ConnectionError("connection closed by server")
        request_id = next(self._request_ids)
        message = encode_message(msg_type(request_id=request_id, **fields))
        future = self._loop.create_future()
        self._replies[request_id] = future
        try:
            await write_frame(self._writer, message, self._max_frame)
        except BaseException:
            # The request never left: unregister its reply future so it
            # cannot linger (and warn about an unretrieved exception) at
            # connection teardown.
            self._replies.pop(request_id, None)
            future.cancel()
            raise
        try:
            return await future
        finally:
            # A caller that stopped waiting (a timed-out ping) leaves no
            # reply slot behind.
            self._replies.pop(request_id, None)

    # -- API -----------------------------------------------------------

    async def open_session(
        self,
        tenant: str,
        params: bytes | BfvParameters,
        *,
        public_key: bytes | None = None,
        relin_key: bytes | None = None,
        galois_keys: tuple[bytes, ...] = (),
        token: str = "",
    ) -> str:
        """Open (or rejoin) the tenant's session for a parameter set.

        ``token`` authenticates the tenant against the server's auth
        table (required when the server was started with one; checked
        before any session state is touched).
        """
        if isinstance(params, BfvParameters):
            params = serialize_params(params)
        reply = await self._request(
            OpenSessionMsg, tenant=tenant, params=bytes(params),
            public_key=public_key, relin_key=relin_key,
            galois_keys=tuple(bytes(g) for g in galois_keys),
            token=token,
        )
        return reply.session_id

    async def submit(
        self,
        session_id: str,
        kind: JobKind | str,
        operands=(),
        *,
        steps: int = 0,
        backend: str = "",
        deadline: float = 0.0,
        on_done: DoneCallback | None = None,
    ) -> str:
        """Queue a raw-op job; returns its job id.

        The submission subscribes to the job's completion event, so a
        later ``await result(job_id)`` never polls, and ``on_done`` (if
        given) fires with the :class:`EventMsg` the moment the server
        pushes it. ``deadline`` is a relative budget in seconds (0 = no
        deadline): the server sheds the job with a typed failure if it
        has not executed within it.
        """
        kind_value = kind.value if isinstance(kind, JobKind) else str(kind)
        record = (SubmitMsg, dict(
            session_id=session_id, kind=kind_value,
            operands=_wire_operands(operands),
            steps=steps, backend=backend, deadline=deadline, subscribe=True,
        ))
        job_id = await self._submit_with_retry(record)
        self._submissions[job_id] = record
        if on_done is not None:
            self._jobs[job_id].add_callback(on_done)
        return job_id

    async def submit_circuit(
        self,
        session_id: str,
        circuit: Circuit | bytes,
        inputs=(),
        *,
        backend: str = "",
        deadline: float = 0.0,
        on_done: DoneCallback | None = None,
    ) -> str:
        """Queue a whole app circuit; returns its job id.

        ``circuit`` may be a built :class:`~repro.service.circuits.Circuit`
        or its pre-serialized wire bytes; ``inputs`` bind positionally to
        the circuit's named inputs (wire bytes or Ciphertext objects).
        ``await result(job_id)`` then yields the framed named-output map
        — decode it with
        :func:`~repro.service.serialization.deserialize_circuit_outputs`.
        """
        wire_circuit = (
            bytes(circuit) if isinstance(circuit, (bytes, bytearray))
            else serialize_circuit(circuit)
        )
        record = (SubmitCircuitMsg, dict(
            session_id=session_id, circuit=wire_circuit,
            operands=_wire_operands(inputs), backend=backend,
            deadline=deadline, subscribe=True,
        ))
        job_id = await self._submit_with_retry(record)
        self._submissions[job_id] = record
        if on_done is not None:
            self._jobs[job_id].add_callback(on_done)
        return job_id

    # -- retry machinery -----------------------------------------------

    async def _send_submission(self, record: tuple) -> str:
        """Send one recorded ``(message type, fields)`` submission and
        register its job future."""
        msg_type, fields = record
        reply: StatusMsg = await self._request(msg_type, **fields)
        self._jobs.setdefault(reply.job_id, _ClientJob(self._loop))
        return reply.job_id

    async def _submit_with_retry(self, record: tuple) -> str:
        delays = self._retry.delays() if self._retry is not None else []
        attempt = 0
        while True:
            try:
                return await self._send_submission(record)
            except JobFailedError:
                raise
            except (TransportError, ConnectionError, OSError,
                    asyncio.IncompleteReadError, WireFormatError) as exc:
                lost_link = not isinstance(exc, TransportError)
                retryable = (
                    exc.retryable if isinstance(exc, TransportError)
                    else bool(self._host)
                )
                if attempt >= len(delays) or not retryable or self._closed:
                    raise
                await asyncio.sleep(delays[attempt])
                attempt += 1
                if lost_link:
                    await self._reconnect()

    async def _reconnect(self) -> None:
        """Redial the server and restart frame routing (idempotent:
        concurrent losers of the lock see a live link and return)."""
        if not self._host:
            raise TransportError(
                "client was built on a raw stream; cannot reconnect"
            )
        async with self._reconnect_lock:
            if self._closed:
                raise TransportError("client is closed")
            if not self._writer.is_closing() and not self._reader_task.done():
                return  # another coroutine already redialed
            self._reader_task.cancel()
            with contextlib.suppress(BaseException):
                await self._reader_task
            with contextlib.suppress(ConnectionError, OSError):
                self._writer.close()
            reader, writer = await asyncio.open_connection(
                self._host, self._port
            )
            self._reader = reader
            self._writer = writer
            self._reader_task = asyncio.ensure_future(self._read_loop())
            self.reconnects += 1

    async def result(self, job_id: str) -> bytes:
        """Await the job's completion event; returns the result bytes.

        Raises :class:`JobFailedError` if the job failed server-side
        (terminal — never retried). With a :class:`RetryPolicy`, a
        connection that dies first is redialed and the recorded
        submission resent: content addressing and in-queue dedupe make
        the replay exactly-once-safe, and the payload that comes back is
        bit-identical to what the lost link would have carried.
        """
        if job_id not in self._jobs:
            raise KeyError(
                f"job {job_id!r} was not submitted on this client"
            ) from None
        current = job_id
        delays = self._retry.delays() if self._retry is not None else []
        attempt = 0
        while True:
            job = self._jobs[current]
            try:
                event = await asyncio.shield(job.future)
            except asyncio.CancelledError:
                raise
            except Exception:
                # The only exception source for a job future is
                # _fail_outstanding — the link died under us.
                record = self._submissions.get(job_id)
                if (attempt >= len(delays) or record is None
                        or not self._host or self._closed):
                    raise
                await asyncio.sleep(delays[attempt])
                attempt += 1
                await self._reconnect()
                current = await self._send_submission(record)
                continue
            if event.status != "done":
                raise JobFailedError(current, event.error or "unknown failure")
            return event.payload

    async def status(self, job_id: str) -> str:
        """Ask the server for a job's current status (read-only)."""
        reply: StatusMsg = await self._request(StatusMsg, job_id=job_id)
        return reply.status

    async def fetch_result(self, job_id: str) -> bytes:
        """Request a job's result explicitly (RESULT frame).

        Useful for jobs another connection submitted, or after a missed
        event; the server answers when the job completes.
        """
        reply: ResultMsg = await self._request(ResultMsg, job_id=job_id)
        if reply.status != "done":
            raise JobFailedError(job_id, reply.error or "unknown failure")
        return reply.payload

    async def stats(self) -> str:
        """Fetch the server's metrics as Prometheus exposition text."""
        reply: StatsMsg = await self._request(StatsMsg)
        return reply.text

    async def trace(self, job_id: str) -> TraceMsg:
        """Fetch a job's span tree (any job id the server knows).

        The reply's ``spans`` are ``(phase, parent, start, end)`` tuples;
        a tracing-off server answers with zero spans. Unknown job ids
        raise :class:`TransportError` (the server's ERROR frame).
        """
        return await self._request(TraceMsg, job_id=job_id)

    async def admin(self, command: str, value: int = 1) -> int:
        """Fleet admin over the wire (``grow``/``shrink``/``resize``).

        Returns the fleet size after the operation; raises
        :class:`TransportError` on a fleetless server or bad command.
        """
        reply: AdminMsg = await self._request(
            AdminMsg, command=command, value=value
        )
        return reply.value

    def events_received(self, job_id: str) -> int:
        """How many completion events arrived for a job (expected: 1)."""
        job = self._jobs.get(job_id)
        return 0 if job is None else job.events

    def forget(self, job_id: str) -> None:
        """Drop everything the client holds for a job: its recorded
        submission and its completion event. Call it once the event is
        consumed; ``result(job_id)`` then raises ``KeyError``."""
        self._jobs.pop(job_id, None)
        self._submissions.pop(job_id, None)

    async def disconnected(self) -> None:
        """Wait until the link is gone: closed by the server or broken."""
        await asyncio.shield(self._reader_task)

    async def aclose(self, drain: bool = True,
                     drain_timeout: float = 30.0) -> None:
        if self._closed:
            return
        if drain:
            # Graceful close: give outstanding completion events a
            # bounded window to land before tearing the link down.
            pending = [
                job.future for job in self._jobs.values()
                if not job.future.done()
            ]
            if pending:
                with contextlib.suppress(Exception):
                    await asyncio.wait(pending, timeout=drain_timeout)
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncFheClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


class FheClient:
    """Synchronous facade over :class:`AsyncFheClient`.

    Hosts a private event loop on a daemon thread so ordinary code (and
    the benchmarks) can drive a remote pool without touching asyncio::

        with FheClient(host, port) as client:
            sid = client.open_session("acme", params_bytes, relin_key=rk)
            job = client.submit(sid, "multiply", (a_bytes, b_bytes))
            wire = client.result(job)   # parks on the completion event
            app = client.submit_circuit(sid, model.to_circuit(batch=4), cts)
            outputs = client.result(app)  # framed named-output map

    ``on_done`` callbacks run on the client's loop thread.
    """

    def __init__(self, host: str, port: int, *,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 timeout: float | None = 120.0,
                 retry: RetryPolicy | None = None):
        self._timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="fhe-client", daemon=True
        )
        self._thread.start()
        try:
            self._client: AsyncFheClient = self._run(
                AsyncFheClient.connect(
                    host, port, max_frame=max_frame, retry=retry
                )
            )
        except BaseException:
            self._stop_loop()
            raise

    def _run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            self._timeout
        )

    def open_session(self, tenant, params, *, public_key=None,
                     relin_key=None, galois_keys=(), token="") -> str:
        return self._run(self._client.open_session(
            tenant, params, public_key=public_key, relin_key=relin_key,
            galois_keys=galois_keys, token=token,
        ))

    def submit(self, session_id, kind, operands=(), *, steps=0, backend="",
               deadline=0.0, on_done: DoneCallback | None = None) -> str:
        return self._run(self._client.submit(
            session_id, kind, operands, steps=steps, backend=backend,
            deadline=deadline, on_done=on_done,
        ))

    def submit_circuit(self, session_id, circuit, inputs=(), *, backend="",
                       deadline=0.0,
                       on_done: DoneCallback | None = None) -> str:
        return self._run(self._client.submit_circuit(
            session_id, circuit, inputs, backend=backend, deadline=deadline,
            on_done=on_done,
        ))

    def result(self, job_id: str) -> bytes:
        return self._run(self._client.result(job_id))

    def status(self, job_id: str) -> str:
        return self._run(self._client.status(job_id))

    def fetch_result(self, job_id: str) -> bytes:
        return self._run(self._client.fetch_result(job_id))

    def stats(self) -> str:
        return self._run(self._client.stats())

    def trace(self, job_id: str) -> TraceMsg:
        return self._run(self._client.trace(job_id))

    def admin(self, command: str, value: int = 1) -> int:
        return self._run(self._client.admin(command, value))

    def events_received(self, job_id: str) -> int:
        return self._client.events_received(job_id)

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._run(self._client.aclose())
        finally:
            self._stop_loop()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()

    def __enter__(self) -> "FheClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
