"""The traced layer ladder: what each layer adds, in calibrated ms.

``--trace 1`` runs this instead of the end-to-end procedure. The harness
records a span around every public call it makes into a layer (spans
inside the program are a later change), pairs each block of samples
with calibration-kernel runs before and after it, and reports one row
per layer metric. A layer's overhead is a subtraction between two rows.

Every row is measured whatever ``--workload`` says; the workload picks
which of the four miniature wave shapes also runs *untraced* twins
(``host.trace_overhead_frac``) and whose serving counters are reported
under ``server.*``.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import time

import numpy as np

import calib
import host
import stacks
import traffic
import workloads
from spec import BY_NAME, Workload

from repro.apps.cryptonets import MiniCryptoNets
from repro.apps.logreg import MiniLogisticRegression
from repro.bfv import BfvParameters, RotationEngine
from repro.bfv.rotation import apply_galois_with_key
from repro.core.chip import CoFHEE
from repro.core.driver import CofheeDriver
from repro.polymath.engine import require_engine
from repro.polymath.fastntt import RnsExactMultiplier
from repro.polymath.primes import ntt_friendly_prime
from repro.service import jobs as service_jobs
from repro.service.backends import ChipPoolBackend, SoftwareBackend
from repro.service.circuits import evaluate_circuit
from repro.service.jobs import JobKind
from repro.service.optimizer import optimize_circuit
from repro.service.registry import SessionRegistry
from repro.service.serialization import (
    deserialize_ciphertext,
    deserialize_circuit,
    deserialize_circuit_outputs,
    deserialize_galois_key,
    deserialize_relin_key,
    serialize_ciphertext,
    serialize_circuit,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

OUT_DIR = host.ROOT / "bench" / "out"

#: Samples per row at wave-scale 1.0, by what one sample costs. The
#: cheap rows keep the issue's 40; rows whose one sample is a whole job,
#: wave, circuit or toy app (0.4-1.6 s each) take fewer so that a traced
#: run fits the time cap.
SAMPLES = {"kernel": 40, "op": 16, "job": 12, "wave": 8, "circuit": 6,
           "app": 4}
MIN_SAMPLES = {"kernel": 3, "op": 3, "job": 3, "wave": 3, "circuit": 2,
               "app": 2}
#: A block of samples is closed by a calibration run once it is this long.
BLOCK_SECONDS = 0.25


class Ladder:
    """Collects calibrated rows; every sample is a harness span."""

    def __init__(self, scale: float):
        self.scale = scale
        self.cal = calib.Calibrator()
        self.cal.warm()
        self.tracer = stacks.Tracer()
        self.rows: dict[str, tuple[float, str]] = {}
        #: One verifier for every stack: a job served by two stacks must
        #: come back as the same bytes.
        self.verifier = workloads.Verifier()

    def count(self, kind: str) -> int:
        return max(MIN_SAMPLES[kind], round(SAMPLES[kind] * self.scale))

    def put(self, name: str, value: float, unit: str) -> float:
        self.rows[name] = (float(value), unit)
        return float(value)

    def time_row(self, name: str, fn, kind: str, warm: bool = True) -> float:
        """Median calibrated milliseconds of ``fn()`` -> row ``name``."""
        if warm:
            fn()
        values: list[float] = []
        block: list[float] = []
        total = self.count(kind)
        # One timed kernel run per block edge: the rows are short and
        # many, and ungated, so they take the cheap calibration.
        before = self.cal.sample(runs=1)
        for index in range(total):
            with self.tracer.span(name) as record:
                fn()
            block.append(record["end"] - record["start"])
            if sum(block) >= BLOCK_SECONDS or index == total - 1:
                after = self.cal.sample(runs=1)
                scale = calib.factor(before, after)
                values.extend(d * scale for d in block)
                block, before = [], after
        return self.put(name, calib.median(values) * 1e3, "ms")

    def value(self, name: str) -> float:
        return self.rows[name][0]


# ----------------------------------------------------------------------
# Isolated layers: engine, bfv, serialization, registry, driver, backends
# ----------------------------------------------------------------------


def engine_rows(lad: Ladder, tenant: traffic.Tenant) -> None:
    """``polymath/engine.py`` on the auxiliary basis ``Bfv.multiply`` uses."""
    params = tenant.params
    eng = require_engine(RnsExactMultiplier(params.n, params.q).basis, params.n)
    a1, a2 = (p.centered() for p in tenant.cts[0].polys)
    b1, b2 = (p.centered() for p in tenant.cts[1].polys)
    sa1, sa2, sb1, sb2 = (eng.decompose(c) for c in (a1, a2, b1, b2))
    fwd = eng.forward(sa1)
    tensor = np.stack(eng.tensor(sa1, sa2, sb1, sb2))
    canonical = list(tenant.cts[0].polys[0].coeffs)
    digits = -(-params.q.bit_length() // traffic.RELIN_DIGIT_BITS)
    lad.time_row("engine.ntt_forward_ms", lambda: eng.forward(sa1), "kernel")
    lad.time_row("engine.ntt_inverse_ms", lambda: eng.inverse(fwd), "kernel")
    lad.time_row("engine.tensor_ms",
                 lambda: eng.tensor(sa1, sa2, sb1, sb2), "kernel")
    lad.time_row("engine.decompose_ms", lambda: eng.decompose(a1), "kernel")
    lad.time_row("engine.reconstruct_ms",
                 lambda: eng.centered_reconstruct(tensor[0]), "kernel")
    lad.time_row("engine.round_scale_ms",
                 lambda: eng.round_scale(tensor, params.t, params.q), "kernel")
    lad.time_row(
        "engine.digit_decompose_ms",
        lambda: eng.digit_decompose(
            canonical, traffic.RELIN_DIGIT_BITS, digits
        ),
        "kernel",
    )


def bfv_rows(lad: Ladder, tenant: traffic.Tenant,
             dense: traffic.Dense16) -> None:
    bfv, keys = tenant.bfv, tenant.keys
    a, b = tenant.cts[0], tenant.cts[1]
    product = bfv.multiply(a, b)
    plain = tenant.encoder.encode(tenant.slots[2])
    gkey = dense.rotor.galois_key(3)  # rotate_rows by one slot
    lad.time_row("bfv.multiply_ms", lambda: bfv.multiply(a, b), "op")
    lad.time_row("bfv.relinearize_ms",
                 lambda: bfv.relinearize(product, keys.relin), "op")
    lad.time_row("bfv.add_ms", lambda: bfv.add(a, b), "op")
    lad.time_row("bfv.multiply_plain_ms",
                 lambda: bfv.multiply_plain(a, plain), "op")
    lad.time_row("bfv.rotate_ms",
                 lambda: apply_galois_with_key(bfv, a, gkey), "op")
    lad.put(
        "bfv.multiply_over_tensor",
        lad.value("bfv.multiply_ms") / lad.value("engine.tensor_ms"),
        "ratio",
    )


def serialization_rows(lad: Ladder, tenant: traffic.Tenant,
                       dense: traffic.Dense16) -> None:
    params = tenant.params
    ct, ct_wire = tenant.cts[0], tenant.wire[0]
    galois_wire = tenant.galois_wire[0]
    lad.time_row("serialization.ct_encode_ms",
                 lambda: serialize_ciphertext(ct), "op")
    lad.time_row("serialization.ct_decode_ms",
                 lambda: deserialize_ciphertext(ct_wire, params), "op")
    lad.time_row(
        "serialization.relin_key_decode_ms",
        lambda: deserialize_relin_key(tenant.relin_wire, params), "op",
    )
    lad.time_row(
        "serialization.galois_key_decode_ms",
        lambda: deserialize_galois_key(galois_wire, params), "op",
    )
    lad.time_row("serialization.circuit_decode_ms",
                 lambda: deserialize_circuit(dense.circuit_wire), "op")
    lad.put("serialization.ct_bytes", len(ct_wire), "bytes")
    lad.put("serialization.relin_key_bytes", len(tenant.relin_wire), "bytes")


def registry_rows(lad: Ladder, tenant: traffic.Tenant) -> None:
    """Session open with a relin key: cold builds the params context."""
    relin = tenant.keys.relin
    lad.time_row(
        "registry.open_session_cold_ms",
        lambda: SessionRegistry().open_session(
            "t", tenant.params, relin=relin
        ),
        "job",
    )
    warm = SessionRegistry()
    lad.time_row(
        "registry.open_session_warm_ms",
        lambda: warm.open_session("t", tenant.params, relin=relin), "op",
    )


def driver_rows(lad: Ladder, tenant: traffic.Tenant) -> None:
    """One RNS tower of Algorithm 3 through the chip model's driver."""
    driver = CofheeDriver(CoFHEE())
    q0 = tenant.params.cofhee_basis.moduli[0]
    ct_a = tuple(list(p.coeffs) for p in tenant.cts[0].polys)
    ct_b = tuple(list(p.coeffs) for p in tenant.cts[1].polys)
    cycles: list[int] = []

    def tower():
        _, report = driver.ciphertext_multiply_tower(ct_a, ct_b, q0)
        cycles.append(report.cycles)

    host_ms = lad.time_row("driver.tower_multiply_ms", tower, "op")
    lad.verifier.require(
        len(set(cycles)) == 1, "driver cycles differ between runs"
    )
    lad.put("driver.tower_multiply_cycles", cycles[-1], "cycles")
    lad.put("driver.sim_cycles_per_host_ms", cycles[-1] / host_ms,
            "cycles/ms")


def backend_rows(lad: Ladder, tenant: traffic.Tenant) -> None:
    """``execute_batch`` on prebuilt jobs: no codec, no scheduler."""
    registry = SessionRegistry()
    session = registry.open_session(
        "t", tenant.params, relin=tenant.keys.relin
    )
    batch_ids = itertools.count(1)

    def batch(backend, width: int):
        jobs = [
            service_jobs.Job(
                session_id=session.session_id, tenant="t",
                kind=JobKind.MULTIPLY,
                operands=[tenant.cts[i], tenant.cts[i + 1]],
            )
            for i in range(width)
        ]
        backend.execute_batch(next(batch_ids), jobs, registry)
        lad.verifier.require(
            all(j.status.value == "done" for j in jobs),
            f"{backend.name} batch did not complete",
        )

    software, pool = SoftwareBackend(), ChipPoolBackend(pool_size=4)
    sw = lad.time_row("backends.software_job_ms",
                      lambda: batch(software, 1), "job")
    chip = lad.time_row("backends.chip_pool_job_ms",
                        lambda: batch(pool, 1), "job")
    four = lad.time_row("backends.chip_pool_batch4_job_ms",
                        lambda: batch(pool, 4), "wave", warm=False)
    lad.put("backends.chip_pool_batch4_job_ms", four / 4, "ms")
    lad.put("backends.chip_model_overhead_ms", chip - sw, "ms")
    lad.put(
        "backends.exec_overhead_ms",
        sw - lad.value("bfv.multiply_ms") - lad.value("bfv.relinearize_ms"),
        "ms",
    )


# ----------------------------------------------------------------------
# Serving stacks: the four workload shapes in miniature, with spans
# ----------------------------------------------------------------------


class Shape:
    """A few traced waves of one workload shape, verified like any run.

    ``twin`` adds an untraced wave after every traced one (the
    traced-vs-untraced gap); ``serial`` adds that many ``W = 1`` jobs of
    tenant 0 through the same stack (the layer's serial latency).
    """

    def __init__(self, lad: Ladder, workload: Workload, tr_args: tuple,
                 count: int, twin: bool, serial: int = 0):
        self.lad = lad
        self.workload = workload
        self.count = count
        self.twin = twin
        self.serial_count = serial
        # Wave 0 is the fleet's key-replication row; the other stacks
        # finish their lazy set-up at session open and need no warm-up.
        self.lead = 1 if workload.stack == "fleet" else 0
        self.main_waves = self.lead + count * (2 if twin else 1)
        serial_waves = -(-serial // workload.per_tenant)
        seed, quick, tenants, dense = tr_args
        self.tr = workloads.Traffic(
            workload, seed, quick, self.main_waves + serial_waves,
            tenants=tenants, dense=dense,
        )
        self.first: calib.Wave | None = None
        self.traced: list[calib.Wave] = []
        self.untraced: list[calib.Wave] = []
        self.serial: list[calib.Wave] = []
        self.counts: dict = {}
        self.transport: dict = {}
        self.spawn_s = 0.0

    def run(self) -> None:
        lad, tr = self.lad, self.tr
        gc.collect()
        results = []
        before = lad.cal.sample()
        t0 = time.perf_counter()
        stack = workloads.make_stack(self.workload, lad.tracer)
        try:
            if self.workload.stack == "fleet":
                self._await_workers(stack)
                self.spawn_s = (time.perf_counter() - t0) * calib.factor(
                    before, lad.cal.sample()
                )
            stack.open(tr.tenants)

            def measure(waves, tracer):
                stack.tracer = tracer
                measured, more = workloads.measure_waves(
                    stack, tr, lad.cal, waves
                )
                results.extend(more)
                return measured

            if self.lead:
                self.first = measure([tr.wave(0)], lad.tracer)[0]
            null = stacks.NullTracer()
            index = self.lead
            for _ in range(self.count):
                self.traced += measure([tr.wave(index)], lad.tracer)
                index += 1
                if self.twin:
                    self.untraced += measure([tr.wave(index)], null)
                    index += 1
            self.serial = measure(
                [[job] for job in
                 tr.serial_jobs(self.main_waves, self.serial_count)],
                lad.tracer,
            )
            self.counts = workloads.stack_counts(stack)
            self.transport = stack.transport_counters()
        finally:
            stack.close()
        lad.verifier.check(tr, results)

    @staticmethod
    def _await_workers(stack) -> None:
        """Block until every fleet worker has said hello."""
        fleet = stack.fhe.fleet
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            fleet.poll(0.01)
            workers = fleet.fleet_report()["workers"]
            if all(w["heartbeats"] >= 1 for w in workers):
                return
        raise RuntimeError("fleet workers did not start within 60 s")

    def span_ms(self, name: str, waves: list[calib.Wave]) -> float:
        """Median calibrated ms per job a wave spends in spans ``name``."""
        spans = self.lad.tracer.spans
        per_wave = []
        for wave in waves:
            total = sum(
                s["end"] - s["start"] for s in spans
                if s["name"] == name and wave.start <= s["start"] <= wave.end
            )
            per_wave.append(total * wave.factor / len(wave.latencies))
        return calib.median(per_wave) * 1e3


def _counter(snapshot: dict, name: str) -> float:
    """Sum of one counter family over its label sets."""
    return sum(snapshot.get(name, {}).values())


def serving_rows(lad: Ladder, tr_args: tuple, target: Workload) -> dict:
    """server / transport / fleet / circuits rows from the four shapes."""
    jobs, waves = lad.count("job"), lad.count("wave")
    shapes = {}
    for name, count, serial in (
        ("evalmult_inproc_serial", jobs, 0),
        ("evalmult_tcp_wave4", waves, jobs),
        ("evalmult_fleet_wave2", jobs, jobs),
        ("dense16_inproc_serial", lad.count("circuit"), 0),
    ):
        shape = Shape(lad, BY_NAME[name], tr_args, count,
                      twin=name == target.name, serial=serial)
        shape.run()
        shapes[name] = shape

    inproc = shapes["evalmult_inproc_serial"]
    submit = lad.put("server.submit_ms",
                     inproc.span_ms("server.submit", inproc.traced), "ms")
    result = lad.put("server.result_ms",
                     inproc.span_ms("server.result", inproc.traced), "ms")
    lad.put("server.overhead_ms",
            submit + result - lad.value("backends.chip_pool_job_ms"), "ms")
    serial = calib.latency_mean_ms(inproc.traced)

    tcp = shapes["evalmult_tcp_wave4"]
    tcp_serial = lad.put("transport.serial_latency_ms",
                         calib.latency_mean_ms(tcp.serial), "ms")
    lad.put("transport.hop_ms", tcp_serial - serial, "ms")
    lad.put("transport.wave4_wait_ms",
            calib.latency_mean_ms(tcp.traced) - tcp_serial, "ms")
    tcp_jobs = max(1, tcp.counts["jobs_completed"])
    lad.put(
        "transport.bytes_in_per_job",
        _counter(tcp.transport, "repro_frame_bytes_received_total")
        / tcp_jobs, "bytes",
    )
    lad.put(
        "transport.bytes_out_per_job",
        _counter(tcp.transport, "repro_frame_bytes_sent_total") / tcp_jobs,
        "bytes",
    )
    lad.put(
        "transport.frames_per_job",
        (_counter(tcp.transport, "repro_frames_received_total")
         + _counter(tcp.transport, "repro_frames_sent_total")) / tcp_jobs,
        "count",
    )
    lad.put("transport.backpressure_stalls",
            _counter(tcp.transport, "repro_backpressure_stalls_total"),
            "count")

    fleet = shapes["evalmult_fleet_wave2"]
    fleet_serial = lad.put("fleet.serial_latency_ms",
                           calib.latency_mean_ms(fleet.serial), "ms")
    lad.put("fleet.hop_ms", fleet_serial - serial, "ms")
    lad.put("fleet.spawn_s", fleet.spawn_s, "s")
    steady_ms = 1e3 * calib.median(
        w.factor * w.makespan for w in fleet.traced
    )
    lad.put("fleet.key_replication_ms",
            1e3 * fleet.first.factor * fleet.first.makespan - steady_ms, "ms")
    lad.put("fleet.parallel_speedup", 2 * fleet_serial / steady_ms, "ratio")
    lad.put(
        "fleet.frontdoor_cpu_ms_per_job",
        1e3 * calib.median(
            w.factor * (w.cpu - w.cpu_workers) / 2 for w in fleet.traced
        ),
        "ms",
    )
    lad.put(
        "fleet.worker_cpu_ms_per_job",
        1e3 * calib.median(
            w.factor * w.cpu_workers / 2 for w in fleet.traced
        ),
        "ms",
    )
    lad.put("fleet.requeues", fleet.counts["requeues"], "count")
    lad.put("fleet.deaths", fleet.counts["deaths"], "count")
    lad.verifier.require(
        fleet.counts["requeues"] == 0 and fleet.counts["deaths"] == 0,
        "fleet requeued a job or lost a worker",
    )

    dense = shapes["dense16_inproc_serial"]
    lad.put(
        "circuits.serve_overhead_ms",
        calib.latency_mean_ms(dense.traced)
        - lad.value("circuits.evaluate_ms"),
        "ms",
    )

    counts = shapes[target.name].counts
    lad.verifier.require(
        counts["cache_hits"] == 0,
        f"cache_hits == {counts['cache_hits']} on {target.name}",
    )
    for name in ("cache_hits", "cache_misses", "dedupe_hits", "batches"):
        lad.put(f"server.{name}", counts[name], "count")
    lad.put("server.jobs_per_batch",
            counts["jobs_completed"] / max(1, counts["batches"]), "ratio")
    return shapes


def cache_hit_row(lad: Ladder, tenant: traffic.Tenant) -> None:
    """A repeated job: the result cache answers at submit time."""
    server = FheServer()
    sid = server.open_session(
        "t", tenant.params_wire, relin_key=tenant.relin_wire
    )
    operands = (tenant.wire[0], tenant.wire[1])
    first = server.result(server.submit(sid, JobKind.MULTIPLY, operands))

    def again():
        if server.result(
            server.submit(sid, JobKind.MULTIPLY, operands)
        ) != first:
            raise RuntimeError("cache hit returned different bytes")

    lad.time_row("server.cache_hit_ms", again, "op")
    hits = server.pool_report()["result_cache"]["hits"]
    lad.verifier.require(
        hits >= lad.count("op"), "repeated job missed the cache"
    )
    server.close()


def circuit_rows(lad: Ladder, tenant: traffic.Tenant,
                 dense: traffic.Dense16) -> None:
    """In-process circuit evaluation, the optimizer, and the VI-C apps."""
    inputs = [tenant.cts[0], tenant.cts[1]]
    evaluate = lad.time_row(
        "circuits.evaluate_ms",
        lambda: evaluate_circuit(
            tenant.bfv, tenant.keys.relin, dense.circuit, inputs,
            galois=dense.rotor.galois_key,
        ),
        "circuit", warm=False,
    )
    lad.put(
        "circuits.rotation_share",
        traffic.DENSE_ROUNDS * lad.value("bfv.rotate_ms") / evaluate,
        "ratio",
    )
    app_rows(lad)


def _serve_app(lad: Ladder, row: str, model, circuit, inputs, galois,
               check) -> None:
    """Serve one app circuit through in-process ``FheServer``, timed."""
    # The one input is served repeatedly, so the result cache is off:
    # every sample executes the whole circuit.
    server = FheServer(result_cache_size=0)
    sid = server.open_session(
        "app", serialize_params(model.params),
        relin_key=serialize_relin_key(model.keys.relin, model.params),
        galois_keys=galois,
    )
    wire = serialize_circuit(circuit)
    payloads = []

    def serve():
        payloads.append(server.result(server.submit(
            sid, JobKind.CIRCUIT, inputs, payload=wire
        )))

    lad.time_row(row, serve, "app", warm=False)
    lad.verifier.require(
        check(deserialize_circuit_outputs(payloads[-1], model.params)),
        f"{row}: served app circuit decodes to the wrong answer",
    )
    server.close()


def app_rows(lad: Ladder) -> None:
    """Section VI-C app circuits at the test suite's toy parameter sets."""
    rng = random.Random(41)
    cnn = MiniCryptoNets(
        params=BfvParameters.toy_rns(
            n=16, towers=7, tower_bits=28, t=ntt_friendly_prime(16, 20)
        ),
        seed=7,
    )
    image = [rng.randint(-2, 2) for _ in range(36)]
    images = tuple(
        serialize_ciphertext(ct) for ct in cnn.encrypt_images([image])
    )
    rotor = RotationEngine(cnn.bfv, cnn.keys.secret)
    galois = tuple(
        serialize_galois_key(rotor.galois_key(e), cnn.params)
        for e in cnn.packed_galois_exponents()
    )
    want = cnn.infer_plain([image])
    score_check = lambda outs: cnn.scores_from_outputs(outs, 1) == want
    packed = cnn.to_circuit(packed_dense=True)
    _serve_app(lad, "circuits.cryptonets_eager_ms", cnn, cnn.to_circuit(),
               images, (), score_check)
    _serve_app(lad, "circuits.cryptonets_packed_ms", cnn, packed,
               images, galois, score_check)
    reports = []
    lad.time_row(
        "circuits.optimize_ms",
        lambda: reports.append(optimize_circuit(packed, level="exact")[1]),
        "op",
    )
    lad.put("circuits.steps_eliminated",
            reports[-1]["steps_before"] - reports[-1]["steps_after"],
            "count")

    logreg = MiniLogisticRegression(
        params=BfvParameters.toy_rns(
            n=16, towers=7, tower_bits=28, t=ntt_friendly_prime(16, 21)
        ),
        num_features=6, seed=5,
    )
    samples = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(3)]
    lr_rotor = RotationEngine(logreg.bfv, logreg.keys.secret)
    _serve_app(
        lad, "circuits.logreg_packed_ms", logreg,
        logreg.to_circuit(batch=len(samples), packed=True),
        tuple(serialize_ciphertext(ct)
              for ct in logreg.encrypt_packed(samples)),
        tuple(serialize_galois_key(lr_rotor.galois_key(e), logreg.params)
              for e in logreg.packed_galois_exponents()),
        lambda outs: logreg.predictions_from_packed(outs, len(samples))
        == logreg.predict_plain(samples),
    )


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


#: Ordered pairs of this many ciphertexts cover the jobs of the largest
#: shape (the TCP one: W = 4 waves plus its serial jobs) at any scale
#: the time cap allows.
LADDER_POOL = 8


def run_traced(workload: Workload, seed: int, scale: float,
               quick: bool) -> dict:
    lad = Ladder(scale)
    tenants = workloads.make_tenants(seed, quick, 2, LADDER_POOL)
    tenant = tenants[0]
    dense = traffic.Dense16(tenant, seed)

    engine_rows(lad, tenant)
    bfv_rows(lad, tenant, dense)
    serialization_rows(lad, tenant, dense)
    registry_rows(lad, tenant)
    driver_rows(lad, tenant)
    backend_rows(lad, tenant)
    circuit_rows(lad, tenant, dense)
    shapes = serving_rows(lad, (seed, quick, tenants, dense), workload)
    cache_hit_row(lad, tenant)

    chosen = shapes[workload.name]
    latencies = [
        lat for w in chosen.traced + chosen.untraced for lat in w.latencies
    ]
    normalised = [
        w.factor * lat
        for w in chosen.traced + chosen.untraced for lat in w.latencies
    ]
    for pct in (10, 50, 90):
        lad.put(f"host.cal_ms_p{pct}",
                calib.percentile(lad.cal.samples, pct) * 1e3, "ms")
    lad.put("host.raw_latency_p50_ms",
            calib.percentile(latencies, 50) * 1e3, "ms")
    lad.put("host.raw_latency_p95_ms",
            calib.percentile(latencies, 95) * 1e3, "ms")
    lad.put("host.norm_latency_p95_ms",
            calib.percentile(normalised, 95) * 1e3, "ms")
    lad.put(
        "host.trace_overhead_frac",
        calib.latency_mean_ms(chosen.traced)
        / calib.latency_mean_ms(chosen.untraced) - 1.0,
        "ratio",
    )

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "trace.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "wave_scale": scale,
        "rows": {n: {"value": v, "unit": u} for n, (v, u) in lad.rows.items()},
        "spans": lad.tracer.spans,
    }))
    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": lad.verifier.attempted,
        "failed": lad.verifier.failed,
        "problems": lad.verifier.problems,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in lad.rows.items()
        },
        "shape": {"samples": {k: lad.count(k) for k in SAMPLES}},
        "cal_samples": lad.cal.samples,
    }
