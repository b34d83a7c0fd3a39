"""Concurrency battery for the asyncio wire transport.

N async clients x mixed ops over a real localhost listener; every result
must be bit-identical to locally computed :class:`~repro.bfv.Bfv` ground
truth, every completion callback must arrive exactly once per job (no
polling anywhere), shutdown must drain in-flight jobs, and a hostile or
broken peer must never take the server down.
"""

from __future__ import annotations

import asyncio
import inspect
import random
import select
import socket
import threading

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters, RotationEngine
from repro.service.client import (
    AsyncFheClient,
    FheClient,
    JobFailedError,
    TransportError,
)
from repro.service.jobs import JobKind
from repro.service.serialization import (
    TAG_ERROR,
    StatsMsg,
    decode_message,
    encode_message,
    peek_tag,
    serialize_ciphertext,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer
from repro.service.transport import (
    FheTransportServer,
    FrameAssembler,
    ThreadedTransportServer,
    encode_frame,
)

PARAMS = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)
N_CLIENTS = 5  # acceptance floor is 4


def _read_reply(sock):
    """Read one frame from a blocking socket and decode it."""
    def exactly(count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = sock.recv(count - len(data))
            assert chunk, "server closed the link"
            data += chunk
        return data
    return decode_message(exactly(int.from_bytes(exactly(4), "big")))


@pytest.fixture(scope="module")
def stack():
    """Client-side crypto: keys never leave this fixture."""
    bfv = Bfv(PARAMS, seed=0xC0F4EE)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    rotor = RotationEngine(bfv, keys.secret, digit_bits=14)
    return bfv, keys, encoder, rotor


def _session_kwargs(rotor, keys):
    return dict(
        relin_key=serialize_relin_key(keys.relin, PARAMS),
        galois_keys=(
            serialize_galois_key(
                rotor.galois_key(pow(3, 1, 2 * PARAMS.n)), PARAMS
            ),
        ),
    )


def _mixed_ops(stack, seed: int):
    """(kind, operand wire bytes, steps, expected ground-truth wire)."""
    bfv, keys, encoder, rotor = stack
    rng = random.Random(seed)

    def fresh():
        return bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(PARAMS.n)]),
            keys.public,
        )

    a, b = fresh(), fresh()
    c, d = fresh(), fresh()
    e, f = fresh(), fresh()
    return [
        (JobKind.MULTIPLY, (a, b), 0, bfv.multiply_relin(a, b, keys.relin)),
        (JobKind.ADD, (c, d), 0, bfv.add(c, d)),
        (JobKind.SUB, (d, c), 0, bfv.sub(d, c)),
        (JobKind.SQUARE, (e,), 0,
         bfv.relinearize(bfv.square(e), keys.relin)),
        (JobKind.ROTATE, (f,), 1, rotor.rotate_rows(f, 1)),
    ]


class TestConcurrentClients:
    def test_battery_callbacks_bit_identical(self, stack):
        """The acceptance run: N concurrent clients x mixed ops over a
        real socket, chip-pool backend, completion callbacks throughout,
        plus a duplicate-submit phase proving in-queue dedupe."""

        async def one_client(host, port, index):
            ops = _mixed_ops(stack, seed=100 + index)
            fired: dict[str, list[str]] = {}
            async with await AsyncFheClient.connect(host, port) as client:
                sid = await client.open_session(
                    f"tenant{index}", serialize_params(PARAMS),
                    **_session_kwargs(stack[3], stack[1]),
                )
                submitted = []
                for kind, operands, steps, expected in ops:
                    wire_ops = tuple(serialize_ciphertext(o) for o in operands)
                    jid = await client.submit(
                        sid, kind, wire_ops, steps=steps,
                        on_done=lambda ev: fired.setdefault(
                            ev.job_id, []
                        ).append(ev.status),
                    )
                    submitted.append((jid, expected))
                # result() parks on the pushed completion event — the
                # client never polls the server.
                for jid, expected in submitted:
                    wire = await client.result(jid)
                    assert wire == serialize_ciphertext(expected), (
                        f"client {index}, job {jid}: result diverged from "
                        "Bfv ground truth"
                    )
                # Callbacks arrived exactly once per job.
                assert sorted(fired) == sorted(j for j, _ in submitted)
                assert all(v == ["done"] for v in fired.values())
                assert all(
                    client.events_received(j) == 1 for j, _ in submitted
                )

        async def scenario():
            async with FheTransportServer(FheServer(pool_size=4)) as server:
                host, port = server.address
                await asyncio.gather(*(
                    one_client(host, port, i) for i in range(N_CLIENTS)
                ))

                # Duplicate-submit phase: hold the scheduler so identical
                # jobs from two clients land in the dedupe window.
                bfv, keys, encoder, rotor = stack
                wa = serialize_ciphertext(bfv.encrypt(
                    encoder.encode(list(range(PARAMS.n))), keys.public
                ))
                server.pause_execution()
                c1 = await AsyncFheClient.connect(host, port)
                c2 = await AsyncFheClient.connect(host, port)
                s1 = await c1.open_session(
                    "dup1", serialize_params(PARAMS),
                    **_session_kwargs(rotor, keys),
                )
                s2 = await c2.open_session(
                    "dup2", serialize_params(PARAMS),
                    **_session_kwargs(rotor, keys),
                )
                j1 = await c1.submit(s1, JobKind.MULTIPLY, (wa, wa))
                j2 = await c2.submit(s2, JobKind.MULTIPLY, (wa, wa))
                server.resume_execution()
                w1, w2 = await asyncio.gather(c1.result(j1), c2.result(j2))
                assert w1 == w2  # one execution, two fanned-out results
                await c1.aclose()
                await c2.aclose()

                report = server.fhe.pool_report()
                assert report["result_cache"]["dedupe_hits"] >= 1
                # Chip-native EvalMult really ran on worker drivers.
                assert report["fidelity"].get("chip", 0) >= N_CLIENTS
                stats = server.fhe.scheduler.stats
                assert stats.jobs_failed == 0
                assert stats.jobs_completed == stats.jobs_submitted

        asyncio.run(scenario())

    def test_interleaved_submissions_share_batches(self, stack):
        """Many clients submitting concurrently while the pump runs:
        every job still completes with the right answer."""

        async def hammer(host, port, index, results):
            bfv, keys, encoder, rotor = stack
            rng = random.Random(900 + index)
            async with await AsyncFheClient.connect(host, port) as client:
                sid = await client.open_session(
                    f"hammer{index}", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                for _ in range(3):
                    a = bfv.encrypt(
                        encoder.encode(
                            [rng.randrange(16) for _ in range(PARAMS.n)]
                        ),
                        keys.public,
                    )
                    b = bfv.encrypt(
                        encoder.encode(
                            [rng.randrange(16) for _ in range(PARAMS.n)]
                        ),
                        keys.public,
                    )
                    expected = bfv.add(a, b)
                    jid = await client.submit(
                        sid, JobKind.ADD,
                        (serialize_ciphertext(a), serialize_ciphertext(b)),
                    )
                    wire = await client.result(jid)
                    results.append(wire == serialize_ciphertext(expected))
                    await asyncio.sleep(0)  # yield between submissions

        async def scenario():
            results: list[bool] = []
            async with FheTransportServer(FheServer(pool_size=2)) as server:
                host, port = server.address
                await asyncio.gather(*(
                    hammer(host, port, i, results) for i in range(4)
                ))
            assert len(results) == 12 and all(results)

        asyncio.run(scenario())


class TestShutdown:
    def test_close_drains_in_flight_jobs(self, stack):
        """aclose() must deliver every queued job's completion event
        before the connections come down."""
        bfv, keys, encoder, rotor = stack

        async def scenario():
            server = FheTransportServer(FheServer(pool_size=2))
            host, port = await server.start()
            client = await AsyncFheClient.connect(host, port)
            sid = await client.open_session(
                "drain", serialize_params(PARAMS),
                relin_key=serialize_relin_key(keys.relin, PARAMS),
            )
            rng = random.Random(17)
            server.pause_execution()  # hold everything in the queue
            submitted = []
            for _ in range(4):
                a = bfv.encrypt(
                    encoder.encode([rng.randrange(16) for _ in range(PARAMS.n)]),
                    keys.public,
                )
                b = bfv.encrypt(
                    encoder.encode([rng.randrange(16) for _ in range(PARAMS.n)]),
                    keys.public,
                )
                jid = await client.submit(
                    sid, JobKind.MULTIPLY,
                    (serialize_ciphertext(a), serialize_ciphertext(b)),
                )
                submitted.append(
                    (jid, serialize_ciphertext(
                        bfv.multiply_relin(a, b, keys.relin)
                    ))
                )
            collector = asyncio.gather(*(
                client.result(jid) for jid, _ in submitted
            ))
            await server.aclose()  # drains: executes + pushes every event
            wires = await collector
            assert wires == [expected for _, expected in submitted]
            await client.aclose()

        asyncio.run(scenario())

    def test_submit_after_close_is_rejected(self, stack):
        bfv, keys, encoder, rotor = stack

        async def scenario():
            server = FheTransportServer(FheServer(pool_size=1))
            host, port = await server.start()
            client = await AsyncFheClient.connect(host, port)
            sid = await client.open_session(
                "late", serialize_params(PARAMS),
                relin_key=serialize_relin_key(keys.relin, PARAMS),
            )
            server._closing = True  # listener stays up; submissions must bounce
            ct = serialize_ciphertext(bfv.encrypt(
                encoder.encode([1] * PARAMS.n), keys.public
            ))
            with pytest.raises(TransportError, match="shutting down"):
                await client.submit(sid, JobKind.ADD, (ct, ct))
            await client.aclose()
            await server.aclose()

        asyncio.run(scenario())


class TestProtocolRobustness:
    def test_bad_frame_gets_error_and_server_survives(self, stack):
        """A garbage frame earns an ERROR frame and a closed connection;
        the next client is served normally (the reader loop never dies)."""
        bfv, keys, encoder, rotor = stack

        async def scenario():
            async with FheTransportServer(FheServer(pool_size=1)) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(b"\x00garbage, not a CFHE message"))
                await writer.drain()
                frame_len = int.from_bytes(await reader.readexactly(4), "big")
                reply = await reader.readexactly(frame_len)
                assert peek_tag(reply) == TAG_ERROR
                assert "protocol error" in decode_message(reply).message
                assert await reader.read() == b""  # server closed the link
                writer.close()
                await writer.wait_closed()

                # Server is still alive and serving.
                client = await AsyncFheClient.connect(host, port)
                sid = await client.open_session(
                    "after", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                a = bfv.encrypt(
                    encoder.encode(list(range(PARAMS.n))), keys.public
                )
                jid = await client.submit(
                    sid, JobKind.ADD,
                    (serialize_ciphertext(a), serialize_ciphertext(a)),
                )
                assert await client.result(jid) == serialize_ciphertext(
                    bfv.add(a, a)
                )
                await client.aclose()

        asyncio.run(scenario())

    def test_oversized_frame_is_rejected(self):
        async def scenario():
            async with FheTransportServer(
                FheServer(pool_size=1), max_frame=1024,
            ) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write((1 << 30).to_bytes(4, "big"))  # announce 1 GiB
                await writer.drain()
                frame_len = int.from_bytes(await reader.readexactly(4), "big")
                reply = await reader.readexactly(frame_len)
                assert peek_tag(reply) == TAG_ERROR
                assert await reader.read() == b""
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())

    def test_failed_job_event_carries_error(self, stack):
        """A rotation with no Galois key fails server-side; the client
        gets a failure event, not a hang."""
        bfv, keys, encoder, rotor = stack

        async def scenario():
            async with FheTransportServer(FheServer(pool_size=1)) as server:
                host, port = server.address
                client = await AsyncFheClient.connect(host, port)
                sid = await client.open_session(
                    "nokeys", serialize_params(PARAMS),  # no Galois keys
                )
                ct = serialize_ciphertext(bfv.encrypt(
                    encoder.encode([1] * PARAMS.n), keys.public
                ))
                jid = await client.submit(sid, JobKind.ROTATE, (ct,), steps=1)
                with pytest.raises(JobFailedError, match="[Gg]alois"):
                    await client.result(jid)
                assert await client.status(jid) == "failed"
                await client.aclose()

        asyncio.run(scenario())

    def test_unknown_session_and_app_kind_are_rejected(self, stack):
        bfv, keys, encoder, rotor = stack

        async def scenario():
            async with FheTransportServer(FheServer(pool_size=1)) as server:
                host, port = server.address
                client = await AsyncFheClient.connect(host, port)
                ct = serialize_ciphertext(bfv.encrypt(
                    encoder.encode([1] * PARAMS.n), keys.public
                ))
                with pytest.raises(TransportError, match="unknown session"):
                    await client.submit("s9999", JobKind.ADD, (ct, ct))
                sid = await client.open_session(
                    "apps", serialize_params(PARAMS)
                )
                # The retired app kinds are no longer request vocabulary.
                with pytest.raises(TransportError, match="not a valid"):
                    await client.submit(sid, "logreg")
                with pytest.raises(TransportError, match="not a valid"):
                    await client.submit(sid, "frobnicate", (ct, ct))
                await client.aclose()

        asyncio.run(scenario())

    def test_raw_relinearize_is_rejected_and_the_link_survives(self, stack):
        """No circuit step relinearizes a lone uploaded ciphertext, so
        ``relinearize`` is not a raw kind: its SUBMIT gets an ERROR frame
        and the same connection goes on serving."""
        bfv, keys, encoder, rotor = stack

        async def scenario():
            async with FheTransportServer(FheServer(pool_size=1)) as server:
                host, port = server.address
                client = await AsyncFheClient.connect(host, port)
                sid = await client.open_session(
                    "relin", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                a = bfv.encrypt(encoder.encode([2] * PARAMS.n), keys.public)
                ct = serialize_ciphertext(a)
                with pytest.raises(TransportError, match="relinearize"):
                    await client.submit(sid, "relinearize", (ct,))
                jid = await client.submit(sid, JobKind.ADD, (ct, ct))
                assert await client.result(jid) == serialize_ciphertext(
                    bfv.add(a, a)
                )
                await client.aclose()

        asyncio.run(scenario())


class TestEventOrdering:
    def test_cache_hit_submit_gets_its_event(self, stack):
        """A duplicate submit completes at submit time server-side; the
        STATUS reply and the completion EVENT go out back-to-back and
        the client must still resolve result() and count one event."""
        bfv, keys, encoder, rotor = stack

        async def scenario():
            async with FheTransportServer(FheServer(pool_size=2)) as server:
                host, port = server.address
                client = await AsyncFheClient.connect(host, port)
                sid = await client.open_session(
                    "cachehit", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                a = bfv.encrypt(
                    encoder.encode(list(range(PARAMS.n))), keys.public
                )
                ops = (serialize_ciphertext(a), serialize_ciphertext(a))
                first = await client.submit(sid, JobKind.MULTIPLY, ops)
                wire = await client.result(first)
                second = await client.submit(sid, JobKind.MULTIPLY, ops)
                assert await client.result(second) == wire
                assert client.events_received(second) == 1
                report = server.fhe.pool_report()["result_cache"]
                assert report["hits"] == 1
                await client.aclose()

        asyncio.run(scenario())

    def test_event_coalesced_with_submit_reply(self):
        """Regression: a server whose STATUS reply and EVENT push land in
        ONE TCP segment must not lose the event — the client sees both
        frames in a single read chunk, before submit() has returned."""
        from repro.service.serialization import (
            EventMsg,
            StatusMsg,
            TAG_SUBMIT,
            decode_message,
            encode_message,
        )

        async def fake_server(reader, writer):
            # Swallow frames until the SUBMIT, then answer STATUS+EVENT
            # in one write so both frames coalesce.
            while True:
                length = int.from_bytes(await reader.readexactly(4), "big")
                frame = await reader.readexactly(length)
                if peek_tag(frame) == TAG_SUBMIT:
                    msg = decode_message(frame)
                    status = encode_message(StatusMsg(
                        request_id=msg.request_id, job_id="j1", status="done"
                    ))
                    event = encode_message(EventMsg(
                        job_id="j1", status="done", payload=b"payload"
                    ))
                    writer.write(encode_frame(status) + encode_frame(event))
                    await writer.drain()
                    return

        async def scenario():
            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await AsyncFheClient.connect(host, port)
            jid = await client.submit("s1", JobKind.ADD, (b"a", b"b"))
            assert jid == "j1"
            assert await asyncio.wait_for(client.result(jid), 5) == b"payload"
            assert client.events_received(jid) == 1
            await client.aclose()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestSyncFacade:
    def test_sync_client_round_trip(self, stack):
        """FheClient drives a thread-hosted listener without asyncio in
        sight — the path apps and benchmarks use."""
        bfv, keys, encoder, rotor = stack
        a = bfv.encrypt(encoder.encode(list(range(PARAMS.n))), keys.public)
        b = bfv.encrypt(
            encoder.encode(list(range(PARAMS.n, 2 * PARAMS.n))), keys.public
        )
        expected = serialize_ciphertext(bfv.multiply_relin(a, b, keys.relin))
        fired = []
        with ThreadedTransportServer(FheServer(pool_size=2)) as ts:
            with FheClient(ts.host, ts.port) as client:
                sid = client.open_session(
                    "sync", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                jid = client.submit(
                    sid, "multiply",
                    (serialize_ciphertext(a), serialize_ciphertext(b)),
                    on_done=lambda ev: fired.append(ev.status),
                )
                assert client.result(jid) == expected
                assert client.fetch_result(jid) == expected
                assert client.events_received(jid) == 1
            report = ts.fhe.pool_report()
        assert fired == ["done"]
        assert report["fidelity"].get("chip") == 1

    def test_every_server_call_runs_on_the_loop_thread(self, stack):
        """FheServer is not thread-safe: every call the transport makes
        on it — submits, their status, a cache hit's completion, the
        scheduler ticks — runs on the thread that runs the transport's
        loop (``fhe-transport`` here), and serving starts no other
        thread for it."""
        bfv, keys, encoder, _ = stack
        a = bfv.encrypt(encoder.encode(list(range(PARAMS.n))), keys.public)
        operands = (serialize_ciphertext(a), serialize_ciphertext(a))
        calls: list[tuple[str, str]] = []

        def recorded(name, method):
            def call(*args, **kwargs):
                calls.append((name, threading.current_thread().name))
                return method(*args, **kwargs)
            return call

        with ThreadedTransportServer(FheServer(pool_size=2)) as ts:
            fhe = ts.fhe
            for name in dir(type(fhe)):
                if not name.startswith("_") and inspect.isfunction(
                    getattr(type(fhe), name)
                ):
                    setattr(fhe, name, recorded(name, getattr(fhe, name)))
            with FheClient(ts.host, ts.port) as client:
                sid = client.open_session(
                    "threads", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                first = client.submit(sid, "multiply", operands)
                wire = client.result(first)
                hit = client.submit(sid, "multiply", operands)
                assert client.result(hit) == wire
                serving = [t.name for t in threading.enumerate()]
            assert fhe.scheduler.stats.cache_hits == 1
        names = {name for name, _thread in calls}
        assert {"open_session", "submit", "status", "tick"} <= names
        off_loop = [
            (name, thread) for name, thread in calls
            if thread != "fhe-transport"
        ]
        assert not off_loop, off_loop
        assert not [t for t in serving if t.startswith("fhe-engine")], serving

    def test_the_pump_yields_between_ticks(self, stack):
        """A frame read during a tick is served before the queue drains:
        a STATS ping written while the first of 6 queued jobs runs is
        answered, and its reply is on the socket, before the last tick."""
        bfv, keys, encoder, _ = stack
        rng = random.Random(29)
        log: list[str] = []

        def stats_frame(request_id: int) -> bytes:
            return encode_frame(encode_message(StatsMsg(request_id=request_id)))

        def reply_waiting(sock) -> bool:
            return bool(select.select([sock], [], [], 0)[0])

        with ThreadedTransportServer(FheServer(pool_size=1)) as ts, \
                FheClient(ts.host, ts.port) as client, \
                socket.create_connection((ts.host, ts.port), 10) as probe:
            # One round trip first, so the probe's link is being served.
            probe.sendall(stats_frame(1))
            assert _read_reply(probe).request_id == 1
            sid = client.open_session(
                "yield", serialize_params(PARAMS),
                relin_key=serialize_relin_key(keys.relin, PARAMS),
            )
            fhe = ts.fhe
            tick, stats_text = fhe.tick, fhe.stats_text

            def traced_tick():
                if reply_waiting(probe) and "reply" not in log:
                    log.append("reply")
                log.append("tick")
                if log.count("tick") == 1:
                    probe.sendall(stats_frame(2))  # returns mid-tick
                return tick()

            def traced_stats_text():
                log.append("stats")
                return stats_text()

            fhe.tick, fhe.stats_text = traced_tick, traced_stats_text
            ts.server.pause_execution()
            jobs = [
                client.submit(sid, JobKind.ADD, tuple(
                    serialize_ciphertext(bfv.encrypt(encoder.encode(
                        [rng.randrange(16) for _ in range(PARAMS.n)]
                    ), keys.public))
                    for _ in range(2)
                ))
                for _ in range(6)
            ]
            ts._loop.call_soon_threadsafe(ts.server.resume_execution)
            for job_id in jobs:
                client.result(job_id)
            reply = _read_reply(probe)
        assert reply.request_id == 2 and reply.text
        assert log.count("tick") >= 6, log
        assert "stats" in log and "reply" in log, log
        last_tick = len(log) - 1 - log[::-1].index("tick")
        assert log.index("stats") < log.index("reply") < last_tick, log

    def test_mixed_traffic_matches_ground_truth_at_chip_fidelity(self, stack):
        """6 EvalMult + 6 Add jobs over TCP on a pool of 4: every result
        is Bfv ground truth and exactly the EvalMults ran on the chips."""
        bfv, keys, encoder, _ = stack
        rng = random.Random(3)
        ops = []
        for kind, count in ((JobKind.MULTIPLY, 6), (JobKind.ADD, 6)):
            for _ in range(count):
                a, b = (bfv.encrypt(encoder.encode(
                    [rng.randrange(32) for _ in range(PARAMS.n)]),
                    keys.public) for _ in range(2))
                expected = (bfv.multiply_relin(a, b, keys.relin)
                            if kind is JobKind.MULTIPLY else bfv.add(a, b))
                ops.append((kind, (serialize_ciphertext(a),
                                   serialize_ciphertext(b)),
                            serialize_ciphertext(expected)))
        with ThreadedTransportServer(FheServer(pool_size=4)) as ts:
            with FheClient(ts.host, ts.port) as client:
                sid = client.open_session(
                    "mixed", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                jids = [client.submit(sid, kind, operands)
                        for kind, operands, _ in ops]
                wires = [client.result(j) for j in jids]
            report = ts.fhe.pool_report()
        assert wires == [expected for _, _, expected in ops]
        assert report["fidelity"].get("chip") == 6
