"""Multi-tenant session and evaluation-key registry.

The serving layer's state store. Three invariants:

* **Sessions are keyed by params digest.** A session binds a tenant to one
  parameter set (identified by :func:`~repro.service.serialization.params_digest`)
  plus the evaluation keys the tenant uploaded. Re-opening a session for
  the same ``(tenant, digest)`` pair returns the existing one — evaluation
  keys are stored once per tenant, not once per request.
* **Ciphertexts only combine within a compatible session.** Every operand
  entering the service is checked against the session digest (wire-level
  inputs already carry the digest; in-memory operands are re-checked).
* **Per-params contexts are cached.** Building a :class:`~repro.bfv.Bfv`
  evaluation engine is expensive (auxiliary-prime search, NTT twiddle
  tables); the registry builds one per digest and shares it across every
  tenant and request using those parameters — the twiddle cache the chip
  driver gets by keeping a modulus programmed, applied server-side.
  The scheme picks its multiplier once per digest: the batched RNS tower
  engine where a word-sized auxiliary basis qualifies, else the exact
  pure-Python one (``Bfv.multiplier_kind`` records which).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.bfv.keys import GaloisKey, RelinKey
from repro.bfv.params import BfvParameters
from repro.bfv.scheme import Bfv, Ciphertext
from repro.service.serialization import (
    deserialize_ciphertext,
    params_digest,
    serialize_galois_key,
    serialize_relin_key,
)


class SessionError(ValueError):
    """Unknown session, missing key material, or incompatible operands."""


@dataclass
class ParamsContext:
    """Everything cached once per parameter digest."""

    params: BfvParameters
    digest: bytes
    engine: Bfv


@dataclass
class Session:
    """One tenant's binding to a parameter set plus evaluation keys.

    The relin key gates relinearizing (multiply/square) steps and the
    Galois keys gate rotations. Each key's content digest (the SHA-256
    of its wire encoding, taken at upload) sits beside it: the one
    identity the result cache's address and the fleet's key
    replication both read.
    """

    session_id: str
    tenant: str
    digest: bytes
    params: BfvParameters
    relin: RelinKey | None = None
    galois: dict[int, GaloisKey] = field(default_factory=dict)
    relin_digest: bytes = b""
    galois_digests: dict[int, bytes] = field(default_factory=dict)

    def require_relin(self) -> RelinKey:
        if self.relin is None:
            raise SessionError(
                f"session {self.session_id} has no relinearization key; "
                "upload one before submitting multiply jobs"
            )
        return self.relin

    def require_galois(self, exponent: int) -> GaloisKey:
        try:
            return self.galois[exponent]
        except KeyError:
            raise SessionError(
                f"session {self.session_id} has no Galois key for exponent "
                f"{exponent} (registered: {sorted(self.galois)})"
            ) from None


class SessionRegistry:
    """The service's shared session/key/context store."""

    def __init__(self):
        #: Metrics sink handed to every evaluation engine built here (set
        #: by :class:`~repro.service.server.FheServer` before any session
        #: opens; ``None`` leaves the engines un-instrumented).
        self.metrics = None
        self._contexts: dict[bytes, ParamsContext] = {}
        self._sessions: dict[str, Session] = {}
        self._by_tenant: dict[tuple[str, bytes], str] = {}
        self._counter = 0

    # -- parameter contexts ---------------------------------------------

    def context(self, params: BfvParameters) -> ParamsContext:
        """Return (building once) the cached context for a parameter set."""
        digest = params_digest(params)
        if digest not in self._contexts:
            engine = Bfv(params)
            engine.metrics = self.metrics
            self._contexts[digest] = ParamsContext(
                params=params, digest=digest, engine=engine
            )
        return self._contexts[digest]

    @property
    def cached_digests(self) -> list[bytes]:
        return list(self._contexts)

    # -- session lifecycle ----------------------------------------------

    def open_session(
        self,
        tenant: str,
        params: BfvParameters,
        *,
        relin: RelinKey | None = None,
        galois: tuple[GaloisKey, ...] = (),
    ) -> Session:
        """Open (or return) the tenant's session for this parameter set.

        Idempotent per ``(tenant, digest)``: a second call returns the
        existing session, adding any newly supplied key material (a key
        for a slot already held replaces it). Each accepted key's digest
        is the SHA-256 of its wire encoding; the encoding is canonical,
        so it equals the hash of the frame the client uploaded.
        """
        ctx = self.context(params)
        key = (tenant, ctx.digest)
        if key in self._by_tenant:
            session = self._sessions[self._by_tenant[key]]
        else:
            self._counter += 1
            session = Session(
                session_id=f"s{self._counter:04d}",
                tenant=tenant,
                digest=ctx.digest,
                params=ctx.params,
            )
            self._sessions[session.session_id] = session
            self._by_tenant[key] = session.session_id
        if relin is not None:
            session.relin = relin
            session.relin_digest = hashlib.sha256(
                serialize_relin_key(relin, ctx.params)
            ).digest()
        for g in galois:
            session.galois[g.exponent] = g
            session.galois_digests[g.exponent] = hashlib.sha256(
                serialize_galois_key(g, ctx.params)
            ).digest()
        # Key upload is untimed setup: transform every uploaded key's
        # rows into NTT form now, so no job ever pays for it. The rows
        # stay on the key object and are freed with it.
        for key in (relin, *galois):
            if key is not None:
                ctx.engine.prewarm_keyswitch(key)
        return session

    def get(self, session_id: str) -> Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(f"unknown session {session_id!r}") from None

    # -- engines ----------------------------------------------------------

    def engine(self, session: Session) -> Bfv:
        """The shared evaluation engine for this session."""
        return self._contexts[session.digest].engine

    # -- compatibility enforcement ----------------------------------------

    def check_compatible(self, session: Session, ct: Ciphertext) -> None:
        """Reject ciphertexts from a different parameter universe."""
        if params_digest(ct.params) != session.digest:
            raise SessionError(
                f"ciphertext parameters are incompatible with session "
                f"{session.session_id} (tenant {session.tenant}): "
                "operands may only combine within one parameter digest"
            )

    def ingest_ciphertext(self, session: Session, data: bytes) -> Ciphertext:
        """Decode a wire ciphertext under the session's parameters.

        Digest checking happens inside deserialization, so cross-session
        material is rejected before any polynomial is unpacked.
        """
        return deserialize_ciphertext(data, session.params)
