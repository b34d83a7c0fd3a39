"""The ``repro-serve`` entry point, run the way an operator runs it.

``python -m repro.service.cli --listen 127.0.0.1:0 --fleet 2 --tenants
FILE`` is spawned in its own interpreter, so it serves from two worker
processes over a real TCP socket with the tenant table armed. A client
reads the bound port from the ``listening on`` line and drives it: an
EvalMult, an add and a logistic-regression circuit come back
byte-identical to the in-process :class:`FheServer`, the EvalMult's
completion EVENT reports chip fidelity, a wrong token is refused with
the ``auth`` code, and SIGINT drains the server to exit status 0.

``load_tenants`` is covered here too: a malformed or out-of-range line
exits with ``path:line:`` instead of arming a quota that misbehaves.

At paper scale (``--slow``), ``--fleet 4`` serves four n = 2^12
EvalMults, one per worker, with at least 2x less busiest-worker cycles
than ``--fleet 1``.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.apps.logreg import MiniLogisticRegression
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.polymath.fastntt import RnsExactMultiplier
from repro.polymath.primes import ntt_friendly_prime
from repro.service.cli import load_tenants
from repro.service.client import FheClient, TransportError
from repro.service.fleet import route_index
from repro.service.jobs import JobKind
from repro.service.serialization import (
    params_digest,
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer, TenantQuota

REPO_ROOT = Path(__file__).resolve().parents[2]
PARAMS = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)
LOGREG_PARAMS = BfvParameters.toy_rns(
    n=16, towers=5, tower_bits=28, t=ntt_friendly_prime(16, 21)
)
TENANT, TOKEN = "acme", "sesame"


@pytest.fixture(scope="module")
def traffic():
    """Raw EvalMult/add operands and a logreg batch, as wire bytes."""
    bfv = Bfv(PARAMS, seed=2026)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    a, b = (
        serialize_ciphertext(bfv.encrypt(encoder.encode(
            list(range(start, start + PARAMS.n))), keys.public))
        for start in (0, PARAMS.n)
    )
    model = MiniLogisticRegression(params=LOGREG_PARAMS, num_features=4,
                                   seed=11)
    rng = random.Random(3)
    samples = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
    features = tuple(
        serialize_ciphertext(ct) for ct in model.encrypt_features(samples)
    )
    return {
        "raw": (serialize_params(PARAMS),
                serialize_relin_key(keys.relin, PARAMS)),
        "logreg": (serialize_params(LOGREG_PARAMS),
                   serialize_relin_key(model.keys.relin, LOGREG_PARAMS)),
        "multiply": (a, b),
        "add": (a, b),
        "circuit": model.to_circuit(batch=len(samples)),
        "features": features,
    }


def _in_process(traffic) -> dict:
    """Ground truth: the same three jobs through an in-process server."""
    server = FheServer(pool_size=2, result_cache_size=0)
    raw = server.open_session(TENANT, traffic["raw"][0],
                              relin_key=traffic["raw"][1])
    app = server.open_session(TENANT, traffic["logreg"][0],
                              relin_key=traffic["logreg"][1])
    ids = {
        "multiply": server.submit(raw, JobKind.MULTIPLY, traffic["multiply"]),
        "add": server.submit(raw, JobKind.ADD, traffic["add"]),
        "circuit": server.submit(app, JobKind.CIRCUIT, traffic["features"],
                                 payload=traffic["circuit"]),
    }
    return {name: server.result(jid) for name, jid in ids.items()}


@contextlib.contextmanager
def _repro_serve(*flags):
    """``repro-serve --listen 127.0.0.1:0 FLAGS`` in its own interpreter,
    killed on exit if still running: yields (proc, host, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service.cli",
         "--listen", "127.0.0.1:0", *flags],
        env=env, cwd=REPO_ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        # A shell that starts the suite in the background hands its
        # children SIGINT ignored; the drain test needs the default.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 120
        address = None
        while address is None and time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            address = re.search(r"listening on ([\d.]+):(\d+)", line)
        assert address, "repro-serve never announced its listen address"
        yield proc, address.group(1), int(address.group(2))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A spawned ``repro-serve`` over a 2-process fleet: (proc, host, port)."""
    tenants = tmp_path_factory.mktemp("cli") / "tenants.txt"
    tenants.write_text(f"# tenant token\n{TENANT} {TOKEN}\n")
    with _repro_serve("--fleet", "2", "--tenants", str(tenants)) as spawned:
        yield spawned


class TestServedFleet:
    def test_jobs_match_the_in_process_server(self, served, traffic):
        _, host, port = served
        events = []
        with FheClient(host, port) as client:
            raw = client.open_session(TENANT, traffic["raw"][0],
                                      relin_key=traffic["raw"][1],
                                      token=TOKEN)
            app = client.open_session(TENANT, traffic["logreg"][0],
                                      relin_key=traffic["logreg"][1],
                                      token=TOKEN)
            ids = {
                "multiply": client.submit(raw, JobKind.MULTIPLY,
                                          traffic["multiply"],
                                          on_done=events.append),
                "add": client.submit(raw, JobKind.ADD, traffic["add"]),
                "circuit": client.submit_circuit(app, traffic["circuit"],
                                                 traffic["features"]),
            }
            got = {name: client.result(jid) for name, jid in ids.items()}
        assert got == _in_process(traffic)
        (event,) = events
        assert event.status == "done"
        assert event.fidelity == "chip"

    def test_wrong_token_is_refused_with_auth(self, served, traffic):
        _, host, port = served
        with FheClient(host, port) as client:
            with pytest.raises(TransportError) as exc_info:
                client.open_session(TENANT, traffic["raw"][0],
                                    token="wrong")
        assert exc_info.value.code == "auth"
        assert not exc_info.value.retryable

    def test_sigint_drains_and_exits_zero(self, served):
        proc, _, _ = served
        proc.send_signal(signal.SIGINT)
        output, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, output
        assert "draining in-flight jobs" in output


class TestLoadTenants:
    def test_reads_tokens_and_quotas(self, tmp_path):
        path = tmp_path / "tenants.txt"
        path.write_text("acme tok\n\n# comment\nglobex key 4 2.5\n")
        tenants, quotas = load_tenants(str(path))
        assert tenants == {"acme": "tok", "globex": "key"}
        assert quotas == {
            "globex": TenantQuota(max_inflight=4, rate=2.5, burst=3)
        }

    @pytest.mark.parametrize("line", [
        "acme",                      # no token
        "acme tok 1 2 3 4",          # too many columns
        "acme tok x",                # not a number
        "acme tok 0 -50 2",          # negative rate
        "acme tok 0 -50",            # negative rate, default burst
        "acme tok 0 nan 2",          # rate that disables the limit
        "acme tok 0 nan",            # ... with no burst to derive
        "acme tok 0 inf",            # rate that is not finite
        "acme tok -3",               # negative in-flight cap
        "acme tok 0 0 -1",           # negative burst
    ])
    def test_bad_line_exits_with_its_location(self, tmp_path, line):
        path = tmp_path / "tenants.txt"
        path.write_text(f"ok tok\n{line}\n")
        with pytest.raises(SystemExit, match=rf"^{re.escape(str(path))}:2: "):
            load_tenants(str(path))


#: One EvalMult per parameter set at n = 2^12; the sets' digests route
#: to four distinct workers of a fleet of 4.
FLEET_N = 2**12
FLEET_SETS = 4
_CYCLES_LINE = re.compile(
    r'repro_fleet_worker_cycles_total\{[^}]*worker="(\d+)"[^}]*\}\s+'
    r"([0-9.eE+]+)"
)


def _fleet_traffic():
    """(params, keys, operands, expected) per set, one set per worker."""
    chosen = {}
    for towers in (3, 4):
        for bits in range(24, 31):
            params = BfvParameters.toy_rns(n=FLEET_N, towers=towers,
                                           tower_bits=bits)
            chosen.setdefault(route_index(params_digest(params), FLEET_SETS),
                              params)
    assert len(chosen) == FLEET_SETS, "digests did not cover every worker"
    rng = random.Random(23)
    traffic = []
    for i in range(FLEET_SETS):
        params = chosen[i]
        bfv = Bfv(params, seed=500 + i,
                  multiplier=RnsExactMultiplier(params.n, params.q))
        keys = bfv.keygen(relin_digit_bits=30)
        encoder = BatchEncoder(params)
        a, b = (bfv.encrypt(encoder.encode(
            [rng.randrange(64) for _ in range(256)]), keys.public)
            for _ in range(2))
        traffic.append((params, keys,
                        (serialize_ciphertext(a), serialize_ciphertext(b)),
                        serialize_ciphertext(
                            bfv.multiply_relin(a, b, keys.relin))))
    return traffic


@pytest.mark.paper_scale
def test_fleet_of_four_halves_paper_scale_makespan():
    """The same four EvalMults served by ``--fleet 1`` and ``--fleet 4``:
    equal work, and the busiest worker's modeled cycles (the fleet's
    makespan, since workers are concurrent interpreters) >= 2x lower."""
    traffic = _fleet_traffic()
    cycles = {}
    for fleet in (1, 4):
        with _repro_serve("--fleet", str(fleet)) as (_, host, port):
            with FheClient(host, port, timeout=600.0) as client:
                jids = [
                    client.submit(client.open_session(
                        f"bench{i}", serialize_params(params),
                        relin_key=serialize_relin_key(keys.relin, params),
                    ), JobKind.MULTIPLY, operands)
                    for i, (params, keys, operands, _) in enumerate(traffic)
                ]
                assert [client.result(j) for j in jids] == [
                    expected for *_, expected in traffic
                ]
                cycles[fleet] = {
                    int(w): int(float(c))
                    for w, c in _CYCLES_LINE.findall(client.stats())
                }
    x1, x4 = cycles[1], cycles[4]
    assert len(x1) == 1 and len(x4) == FLEET_SETS, (x1, x4)
    assert sum(x4.values()) == sum(x1.values())
    assert max(x4.values()) * 2 <= max(x1.values()), (x1, x4)
