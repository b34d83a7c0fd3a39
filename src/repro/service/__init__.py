"""The serving layer: CoFHEE as a multi-tenant FHE service.

The paper positions CoFHEE as "a small component in a much bigger design,
where the larger design will mostly focus on data movement". This package
is that bigger design in miniature — the layer that turns the reproduction
from a single-shot library into a servable system:

* :mod:`repro.service.serialization` — versioned wire format so
  ciphertexts, keys, and parameter sets can cross a process boundary;
* :mod:`repro.service.registry` — multi-tenant sessions keyed by params
  digest, evaluation-key storage, and per-params context caching;
* :mod:`repro.service.circuits` — app circuits: compiled multi-step
  encrypted programs (named inputs, plaintext constants, an SSA step
  list) that carry the paper's Section VI-C applications over the wire;
* :mod:`repro.service.jobs` — the encrypted-job model: one job shape,
  a circuit (raw homomorphic ops are lowered to one-step circuits);
* :mod:`repro.service.scheduler` — fair round-robin picks across
  tenants, one job per dispatch;
* :mod:`repro.service.backends` — pluggable execution: a pool of N
  simulated CoFHEE chips (cycle-accurate) and the SEAL-style software
  baseline;
* :mod:`repro.service.server` — the synchronous in-process front door
  (``submit`` / ``poll`` / ``result``) with the content-addressed result
  cache and in-queue dedupe (cache-aware scheduling);
* :mod:`repro.service.transport` — the asyncio TCP listener: length-
  prefixed CRC-checked frames, a worker-thread execution pump, and
  pushed completion events instead of polling;
* :mod:`repro.service.client` — :class:`AsyncFheClient` (asyncio core)
  and :class:`FheClient` (sync facade) for driving a remote pool;
* :mod:`repro.service.telemetry` — per-job span tracing
  (:class:`JobTrace`, recorded for every job), the
  :class:`MetricsRegistry` behind the wire ``STATS``/``TRACE``
  exposition, and the phase-attribution fold (:func:`aggregate_phases`)
  behind ``FheServer.phase_report``;
* :mod:`repro.service.cli` — the ``repro-serve`` console script: one
  TCP listener (``--listen``) over the chip pool or a worker fleet.
"""

from repro.service.backends import (
    Backend,
    BackendError,
    ChipPoolBackend,
    SoftwareBackend,
)
from repro.service.circuits import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    evaluate_circuit,
)
from repro.service.client import (
    AsyncFheClient,
    FheClient,
    JobFailedError,
    TransportError,
)
from repro.service.jobs import Job, JobKind, JobMetrics, JobStatus
from repro.service.registry import Session, SessionError, SessionRegistry
from repro.service.scheduler import BatchReport, JobScheduler, ServiceStats
from repro.service.serialization import (
    ParamsMismatchError,
    WireFormatError,
    deserialize_circuit,
    deserialize_circuit_outputs,
    params_digest,
    serialize_circuit,
    serialize_circuit_outputs,
)
from repro.service.server import FheServer
from repro.service.telemetry import (
    PHASES,
    JobTrace,
    MetricsRegistry,
    aggregate_phases,
)
from repro.service.transport import (
    FheTransportServer,
    FrameError,
    ThreadedTransportServer,
)

__all__ = [
    "AsyncFheClient",
    "Backend",
    "BackendError",
    "BatchReport",
    "ChipPoolBackend",
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "FheClient",
    "FheServer",
    "FheTransportServer",
    "FrameError",
    "Job",
    "JobFailedError",
    "JobKind",
    "JobMetrics",
    "JobScheduler",
    "JobStatus",
    "JobTrace",
    "MetricsRegistry",
    "PHASES",
    "ParamsMismatchError",
    "ServiceStats",
    "Session",
    "SessionError",
    "SessionRegistry",
    "SoftwareBackend",
    "ThreadedTransportServer",
    "TransportError",
    "WireFormatError",
    "aggregate_phases",
    "deserialize_circuit",
    "deserialize_circuit_outputs",
    "evaluate_circuit",
    "params_digest",
    "serialize_circuit",
    "serialize_circuit_outputs",
]
