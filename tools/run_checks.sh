#!/usr/bin/env bash
# Repo health check: tier-1 tests, the serving-layer benchmark in smoke
# mode (one pass, no timing statistics), the docs gate (doctest every
# docs/ code block + intra-repo link resolution), and the transport-based
# examples smoke. Run from anywhere.
#
#   tools/run_checks.sh              # tier-1 + benchmark smoke + docs
#                                    # + observability + fleet + examples
#                                    # smoke
#   tools/run_checks.sh --docs       # only the docs stage (when given
#                                    # alone; with other flags the full
#                                    # pipeline runs and already
#                                    # includes the docs gate)
#   tools/run_checks.sh --bench      # also the kernel + serving micro-bench
#                                    # (writes BENCH_kernels.json and enforces
#                                    # the >= 10x EvalMult perf gate and the
#                                    # serving-row gates: >= 8x software,
#                                    # >= 4x chip-pool), then the phase
#                                    # profiler with the relin-tail share
#                                    # regression gate
#   tools/run_checks.sh --obs        # only the observability stage (when
#                                    # given alone; it is already part of
#                                    # the default pipeline): the telemetry
#                                    # test battery + the phase profiler in
#                                    # smoke mode (>= 90% coverage gate)
#   tools/run_checks.sh --transport  # also the wire-transport smoke stage
#                                    # (localhost listener, EvalMult + logreg
#                                    # circuit round-trips, assert bit-identical)
#   tools/run_checks.sh --fleet      # only the fleet stage (when given
#                                    # alone; it is already part of the
#                                    # default pipeline): the chaos test
#                                    # battery + the fleet property suite
#                                    # + a 2-process worker-fleet smoke
#                                    # over a real socket (spawn-safe:
#                                    # each worker is a fresh interpreter)
#                                    # + the spill-over routing bench
#                                    # (skewed hot tenant, >= 1.3x gate)
#   tools/run_checks.sh --layered    # also the layered serving benchmark's
#                                    # own stage: its contract/estimator
#                                    # tests (bench/tests) + the dense16 and
#                                    # tcp_wave4 workloads at toy degree
#                                    # (--quick; the exit status gates
#                                    # correctness — every result
#                                    # decrypt-checked, including the EVENTs
#                                    # streamed mid-batch — not timing)
#   tools/run_checks.sh --slow       # also the paper-scale suites
#                                    # (n = 2^12 pool scaling, n = 2^13 serving)
#   tools/run_checks.sh --cov        # also the line-coverage stage: the
#                                    # service + property suites under
#                                    # coverage.py with an 80% line floor
#                                    # on src/repro/service/ (skipped with
#                                    # a notice when coverage/pytest-cov
#                                    # is not installed — nothing is
#                                    # downloaded)
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_SLOW=0
RUN_BENCH=0
RUN_TRANSPORT=0
RUN_COV=0
RUN_LAYERED=0
DOCS_ONLY=0
OBS_ONLY=0
FLEET_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --slow) RUN_SLOW=1 ;;
    --bench) RUN_BENCH=1 ;;
    --transport) RUN_TRANSPORT=1 ;;
    --cov) RUN_COV=1 ;;
    --layered) RUN_LAYERED=1 ;;
    --docs) DOCS_ONLY=1 ;;
    --obs) OBS_ONLY=1 ;;
    --fleet) FLEET_ONLY=1 ;;
    *) echo "unknown option: $arg (supported: --slow, --bench, --transport, --cov, --layered, --docs, --obs, --fleet)" >&2; exit 2 ;;
  esac
done

#: Line-coverage floor (percent) for src/repro/service/ under --cov.
#: Set just below the measured suite coverage so meaningful regressions
#: (a new module landing untested, a test file going dark) fail the
#: stage without flaking on single-line drift.
COV_FLOOR=80

run_cov() {
  echo
  echo "== line coverage (src/repro/service/, floor ${COV_FLOOR}%) =="
  if ! python -c "import coverage" >/dev/null 2>&1; then
    echo "coverage.py not installed; skipping the coverage stage" \
         "(install 'coverage' to enable — this stage never downloads it)"
    return 0
  fi
  if python -c "import pytest_cov" >/dev/null 2>&1; then
    python -m pytest tests/service tests/property -q \
      --cov=repro.service --cov-report=term --cov-fail-under="$COV_FLOOR"
  else
    # coverage.py without the pytest plugin: same floor, two commands.
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
      python -m coverage run --source=src/repro/service \
      -m pytest tests/service tests/property -q
    python -m coverage report --fail-under="$COV_FLOOR"
  fi
}

run_docs() {
  echo
  echo "== docs check (doctest code blocks + intra-repo links) =="
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python tools/check_docs.py
}

run_obs() {
  echo
  echo "== observability (telemetry suite + phase profiler smoke) =="
  python -m pytest tests/service/test_telemetry.py \
    tests/service/test_stats_wire.py \
    tests/property/test_property_telemetry.py -q
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python tools/profile_serve.py --smoke
}

run_fleet() {
  echo
  echo "== fleet (chaos battery + property suite + 2-process smoke) =="
  python -m pytest tests/service/test_fleet_faults.py \
    tests/property/test_property_fleet.py -q
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.service.demo --fleet-smoke
  echo
  echo "== spill-over routing bench (skewed hot tenant, >= 1.3x gate) =="
  python -m pytest benchmarks/bench_service_throughput.py -k spillover \
    -q -s --benchmark-disable
}

# --docs / --obs / --fleet alone are fast paths; combined with other
# flags every requested stage still runs (the default pipeline includes
# all three).
if [ "$DOCS_ONLY" = 1 ] && [ "$OBS_ONLY$FLEET_ONLY$RUN_SLOW$RUN_BENCH$RUN_TRANSPORT$RUN_COV$RUN_LAYERED" = "0000000" ]; then
  run_docs
  echo
  echo "docs stage passed"
  exit 0
fi
if [ "$OBS_ONLY" = 1 ] && [ "$DOCS_ONLY$FLEET_ONLY$RUN_SLOW$RUN_BENCH$RUN_TRANSPORT$RUN_COV$RUN_LAYERED" = "0000000" ]; then
  run_obs
  echo
  echo "observability stage passed"
  exit 0
fi
if [ "$FLEET_ONLY" = 1 ] && [ "$DOCS_ONLY$OBS_ONLY$RUN_SLOW$RUN_BENCH$RUN_TRANSPORT$RUN_COV$RUN_LAYERED" = "0000000" ]; then
  run_fleet
  echo
  echo "fleet stage passed"
  exit 0
fi

echo "== tier-1 test suite =="
# Includes the transport concurrency battery (tests/service/test_transport.py),
# the frame-fuzz suite (tests/property/test_property_transport.py), the
# circuit wire-format fuzz suite (tests/property/test_property_circuit_wire.py),
# and the app-circuit serving suites (tests/service/test_circuit_*.py).
python -m pytest -x -q

echo
echo "== serving-layer benchmark (smoke) =="
python -m pytest benchmarks/bench_service_throughput.py -q -s --benchmark-disable

run_docs

run_obs

run_fleet

echo
echo "== examples smoke (3 tenants over the wire transport) =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python examples/encrypted_service_demo.py

if [ "$RUN_TRANSPORT" = 1 ]; then
  echo
  echo "== wire-transport smoke (localhost EvalMult + circuit round-trips) =="
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.service.demo --smoke
fi

if [ "$RUN_BENCH" = 1 ]; then
  echo
  echo "== kernel + serving micro-benchmarks (BENCH_kernels.json) =="
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python tools/bench_kernels.py
  echo
  echo "== phase profiler (BENCH_serve_phases.json + relin-tail gate) =="
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python tools/profile_serve.py
fi

if [ "$RUN_LAYERED" = 1 ]; then
  echo
  echo "== layered serving benchmark (bench/tests + dense16 + tcp_wave4 at toy degree) =="
  python -m pytest bench/tests -q
  python3 bench/run.py --quick --workload dense16_inproc_serial --seed 1
  python3 bench/run.py --quick --workload evalmult_tcp_wave4 --seed 1
fi

if [ "$RUN_COV" = 1 ]; then
  run_cov
fi

if [ "$RUN_SLOW" = 1 ]; then
  echo
  echo "== paper-scale pool scaling (n = 2^12, --slow) =="
  python -m pytest tests/service/test_pool_scaling_paper.py --slow -q -s
  echo
  echo "== paper-scale serving benchmark (n = 2^13, --slow) =="
  python -m pytest benchmarks/bench_service_throughput.py --slow -q -s \
    --benchmark-disable
fi

echo
echo "all checks passed"
