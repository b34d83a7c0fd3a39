"""What a fleet router relies on from one client link.

The fleet reaches each worker through a plain :class:`AsyncFheClient`
over a socketpair served by :meth:`FheTransportServer.serve_socket`.
These tests pin the pieces of that link the router depends on: serving
one pre-connected socket with an outbound filter, dropping a job's
records once its event is consumed, noticing a lost link, and failing a
request on a dead link instead of hanging.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.service.client import AsyncFheClient
from repro.service.jobs import JobKind
from repro.service.serialization import (
    TAG_EVENT,
    peek_tag,
    serialize_ciphertext,
    serialize_params,
)
from repro.service.server import FheServer
from repro.service.transport import FheTransportServer

PARAMS = BfvParameters.toy(n=16, log_q=80)


@pytest.fixture(scope="module")
def operands():
    bfv = Bfv(PARAMS, seed=11)
    keys = bfv.keygen()
    ct = bfv.encrypt(BatchEncoder(PARAMS).encode([1, 2, 3]), keys.public)
    return (serialize_ciphertext(ct), serialize_ciphertext(ct))


async def _linked(outbound=None):
    """A transport serving one end of a socketpair, a client on the other."""
    server = FheTransportServer(FheServer(pool_size=1))
    ours, theirs = socket.socketpair()
    serving = asyncio.ensure_future(server.serve_socket(theirs, outbound))
    client = AsyncFheClient(*await asyncio.open_connection(sock=ours))
    return server, serving, client


async def _unlink(server, serving, client):
    await client.aclose(drain=False)
    await serving
    await server.aclose(drain=False)


def test_serve_socket_applies_the_outbound_filter(operands):
    """Frames the filter drops never reach the peer; the rest do."""

    def drop_events(message: bytes) -> bytes | None:
        return None if peek_tag(message) == TAG_EVENT else message

    async def scenario():
        server, serving, client = await _linked(drop_events)
        sid = await client.open_session("t", serialize_params(PARAMS))
        jid = await client.submit(sid, JobKind.ADD, operands)
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(client.result(jid), 0.5)
        assert await client.status(jid) == "done"  # it ran; its event went
        assert client.events_received(jid) == 0
        await _unlink(server, serving, client)

    asyncio.run(scenario())


def test_forget_drops_a_jobs_records(operands):
    async def scenario():
        server, serving, client = await _linked()
        sid = await client.open_session("t", serialize_params(PARAMS))
        events = []
        jid = await client.submit(sid, JobKind.ADD, operands,
                                  on_done=events.append)
        assert await client.result(jid) == events[0].payload
        client.forget(jid)
        assert client.events_received(jid) == 0
        with pytest.raises(KeyError):
            await client.result(jid)
        await _unlink(server, serving, client)

    asyncio.run(scenario())


def test_a_lost_link_is_noticed_and_fails_requests_fast():
    async def scenario():
        server, serving, client = await _linked()
        await client.stats()
        server_side_closes = asyncio.ensure_future(
            server.aclose(drain=False)
        )
        await asyncio.wait_for(client.disconnected(), 5.0)
        with pytest.raises(ConnectionError):
            await asyncio.wait_for(client.stats(), 5.0)
        await server_side_closes
        await client.aclose(drain=False)
        serving.cancel()

    asyncio.run(scenario())
