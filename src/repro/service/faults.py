"""Deterministic fault injection for the worker fleet.

``FheServer(fault_spec=...)`` holds a spec in the grammar below;
:class:`FaultPlan` parses it, and inside each worker
:meth:`WorkerFaults.shim` carries its share out as a filter on the
worker transport's outbound frames. Faults fire at counted points — the
Nth EVENT, the first N pings — never on timers, so the chaos battery
replays recovery paths exactly (the grammar, with examples, is in
``docs/fleet.md``):

>>> plan = FaultPlan.parse("kill:worker=1:job=3; corrupt:worker=0")
>>> [rule.render() for rule in plan.rules]
['kill:worker=1:job=3', 'corrupt:worker=0:job=1']
>>> faults = FaultPlan.parse("corrupt:worker=0:job=2").for_worker(0)
>>> [faults.on_result() for _ in range(3)]
['', 'corrupt', '']
"""

from __future__ import annotations

import dataclasses
import os
import socket
from dataclasses import dataclass
from typing import Callable

from repro.service.serialization import (
    TAG_EVENT,
    TAG_STATS,
    decode_message,
    encode_message,
    peek_tag,
)

_FAULT_ACTIONS = ("kill", "corrupt", "delay_heartbeat", "stall")


class FaultSpecError(ValueError):
    """Malformed ``fault_spec`` / :meth:`FaultPlan.parse` spec."""


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: *action* on *worker* at a counted point.

    ``job`` is the 1-based index of the worker's EVENT it fires on
    (``kill`` ends the worker instead of sending it, ``corrupt``
    bit-flips its payload, ``stall`` swallows it while the worker stays
    live); ``beats`` is how many STATS pings ``delay_heartbeat`` leaves
    unanswered, from the first.
    """

    action: str
    worker: int
    job: int = 1
    beats: int = 1

    def render(self) -> str:
        text = f"{self.action}:worker={self.worker}"
        if self.action == "delay_heartbeat":
            return f"{text}:beats={self.beats}"
        return f"{text}:job={self.job}"


class FaultPlan:
    """A parsed fault schedule for the whole fleet.

    Clauses joined by ``;``, each ``action:key=value:...`` with actions
    ``kill`` / ``corrupt`` / ``delay_heartbeat`` / ``stall`` and keys
    ``worker`` (required), ``job`` (1-based result count) and ``beats``
    (pings to leave unanswered).
    """

    def __init__(self, rules: tuple[FaultRule, ...] = ()):
        self.rules = tuple(rules)

    @classmethod
    def parse(cls, spec: str | None) -> "FaultPlan":
        rules = []
        for clause in filter(None, (c.strip() for c in (spec or "").split(";"))):
            action, *parts = (p.strip() for p in clause.split(":"))
            if action not in _FAULT_ACTIONS:
                raise FaultSpecError(
                    f"unknown fault action {action!r} "
                    f"(supported: {', '.join(_FAULT_ACTIONS)})"
                )
            fields = {}
            for part in filter(None, parts):
                key, sep, value = (s.strip() for s in part.partition("="))
                if not (sep and key in ("worker", "job", "beats")
                        and value.lstrip("-").isdecimal()):
                    raise FaultSpecError(
                        f"bad fault field {part!r} in {clause!r} "
                        "(expected worker=N, job=N or beats=N)"
                    )
                fields[key] = int(value)
            if "worker" not in fields:
                raise FaultSpecError(f"fault clause {clause!r} needs worker=")
            rule = FaultRule(action=action, **fields)
            if rule.job < 1 or rule.beats < 1:
                raise FaultSpecError("job= and beats= are 1-based counts")
            rules.append(rule)
        return cls(tuple(rules))

    def render(self) -> str:
        """Re-render the plan as a spec string (ships to workers)."""
        return "; ".join(rule.render() for rule in self.rules)

    def for_worker(self, index: int) -> "WorkerFaults":
        """Mutable countdown state for one worker's share of the plan."""
        return WorkerFaults(tuple(r for r in self.rules if r.worker == index))


class WorkerFaults:
    """One worker's armed fault counters (lives inside the worker)."""

    def __init__(self, rules: tuple[FaultRule, ...] = ()):
        self._at = {
            action: {r.job for r in rules if r.action == action}
            for action in ("kill", "corrupt", "stall")
        }
        self._skip_beats = sum(
            r.beats for r in rules if r.action == "delay_heartbeat"
        )
        self.results_sent = 0

    def on_result(self) -> str:
        """Account one result send; returns the armed action ("" = none)."""
        self.results_sent += 1
        return next(
            (a for a, at in self._at.items() if self.results_sent in at), ""
        )

    def skip_heartbeat(self) -> bool:
        """Whether the next heartbeat is suppressed (consumes one skip)."""
        if self._skip_beats > 0:
            self._skip_beats -= 1
            return True
        return False

    def shim(self, sock: socket.socket,
             mode: str) -> Callable[[bytes], bytes | None]:
        """The filter over a worker link's outbound frames that carries
        the plan out (see ``FheTransportServer.serve_socket``): a STATS
        reply answers a ping, an EVENT is a result. ``kill`` exits the
        process (``mode="process"``) or shuts the socket (a thread)."""

        def outbound(message: bytes) -> bytes | None:
            tag = peek_tag(message)
            if tag == TAG_STATS:
                return None if self.skip_heartbeat() else message
            action = self.on_result() if tag == TAG_EVENT else ""
            if action == "kill":
                # A crash at the worst moment: the job ran, but its
                # result never leaves the worker.
                if mode == "process":
                    os._exit(1)
                sock.shutdown(socket.SHUT_RDWR)
            if action == "corrupt":
                event = decode_message(message)
                flipped = bytearray(event.payload)
                if flipped:  # the CRC inside will catch it
                    flipped[len(flipped) // 2] ^= 0xFF
                return encode_message(
                    dataclasses.replace(event, payload=bytes(flipped))
                )
            return None if action in ("kill", "stall") else message

        return outbound
