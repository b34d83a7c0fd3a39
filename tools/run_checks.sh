#!/usr/bin/env bash
# Repo health check: the C kernels' warnings, tier-1 tests, the layered
# serving benchmark's own tests and its four workloads at toy degree, the
# docs gate (doctest
# every docs/ code block + intra-repo link resolution), the
# observability and fleet-and-transport batteries, and the
# transport-based examples smoke. Run from anywhere.
#
#   tools/run_checks.sh              # tier-1 + benchmark + docs
#                                    # + observability + fleet and
#                                    # transport + sanitizer + examples
#                                    # smoke, then the line counts of
#                                    # src/repro/service, src/repro/core,
#                                    # src/repro/polymath, src/repro/apps
#                                    # and src/
#   tools/run_checks.sh --docs       # only the docs stage (when given
#                                    # alone; with other flags the full
#                                    # pipeline runs and already
#                                    # includes the docs gate)
#   tools/run_checks.sh --obs        # only the observability stage (when
#                                    # given alone; it is already part of
#                                    # the default pipeline): the telemetry
#                                    # test battery, whose phase-report
#                                    # test gates span coverage at >= 90%,
#                                    # and the metrics-table docs check
#   tools/run_checks.sh --fleet      # only the fleet and transport
#                                    # stage (when given alone; it is
#                                    # already part of the default
#                                    # pipeline): the chaos test battery,
#                                    # the fleet property suite, the
#                                    # fleet link suites (bit identity,
#                                    # fault shim, client link), and the
#                                    # transport batteries (concurrency,
#                                    # circuits over TCP, STATS over the
#                                    # wire, frame and control-codec fuzz),
#                                    # then the transport battery again
#                                    # under -X dev with ResourceWarning
#                                    # as an error
#   tools/run_checks.sh --sanitize   # only the sanitizer stage (when
#                                    # given alone; it is already part of
#                                    # the default pipeline): ntt.c built
#                                    # with ASan+UBSan and the kernel,
#                                    # warm-replay, warm-tower, warm-fault
#                                    # and served-EvalMult batteries run
#                                    # on it with libasan preloaded
#                                    # (tools/sanitize.py, ~20 s)
#   tools/run_checks.sh --slow       # also the paper_scale tests: n = 2^13
#                                    # pool serving, the process fleet of 4
#                                    # vs 1 (>= 2x makespan) and the engine
#                                    # vs pure-Python EvalMult (>= 10x)
#   tools/run_checks.sh --cov        # also the line-coverage stage: the
#                                    # service + property suites under
#                                    # coverage.py with an 80% line floor
#                                    # on src/repro/service/ (skipped with
#                                    # a notice when coverage/pytest-cov
#                                    # is not installed — nothing is
#                                    # downloaded)
#
# The benchmark stage runs `bench/run.py --quick`: every workload at toy
# degree, whose exit status gates correctness (every result
# decrypt-checked, including the EVENTs streamed mid-wave and the jobs
# the fleet dispatches to worker processes), not timing.
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_SLOW=0
RUN_COV=0
DOCS_ONLY=0
OBS_ONLY=0
FLEET_ONLY=0
SANITIZE_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --slow) RUN_SLOW=1 ;;
    --cov) RUN_COV=1 ;;
    --docs) DOCS_ONLY=1 ;;
    --obs) OBS_ONLY=1 ;;
    --fleet) FLEET_ONLY=1 ;;
    --sanitize) SANITIZE_ONLY=1 ;;
    *) echo "unknown option: $arg (supported: --slow, --cov, --docs, --obs, --fleet, --sanitize)" >&2; exit 2 ;;
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
  echo "== docs check (doctest code blocks + intra-repo links + Class.member names) =="
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python tools/check_docs.py
}

run_obs() {
  echo
  echo "== observability (telemetry suite) =="
  python -m pytest tests/service/test_telemetry.py \
    tests/service/test_stats_wire.py \
    tests/service/test_metric_docs.py \
    tests/property/test_property_telemetry.py -q
}

run_fleet() {
  echo
  echo "== fleet and transport (chaos battery + property suite + link suites + transport batteries) =="
  python -m pytest tests/service/test_fleet_faults.py \
    tests/property/test_property_fleet.py \
    tests/service/test_fleet_parity.py tests/service/test_fault_shim.py \
    tests/service/test_client_link.py \
    tests/service/test_transport.py tests/service/test_circuit_transport.py \
    tests/service/test_stats_wire.py \
    tests/property/test_property_transport.py -q
  # Every socket and transport a transport test opens must be closed
  # before its loop is: -X dev reports one that is not as a
  # ResourceWarning, which this run turns into a failure.
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -X dev -W error::ResourceWarning -m pytest -q \
    tests/service/test_transport.py
}

run_sanitize() {
  echo
  echo "== C kernels under ASan+UBSan (kernel, warm-replay, warm-tower, warm-fault, served-EvalMult batteries) =="
  python tools/sanitize.py
}

# --docs / --obs / --fleet / --sanitize alone are fast paths; combined
# with other flags every requested stage still runs (the default
# pipeline includes all four).
if [ "$SANITIZE_ONLY" = 1 ] && [ "$DOCS_ONLY$OBS_ONLY$FLEET_ONLY$RUN_SLOW$RUN_COV" = "00000" ]; then
  run_sanitize
  echo
  echo "sanitizer stage passed"
  exit 0
fi
if [ "$DOCS_ONLY" = 1 ] && [ "$OBS_ONLY$FLEET_ONLY$RUN_SLOW$RUN_COV$SANITIZE_ONLY" = "00000" ]; then
  run_docs
  echo
  echo "docs stage passed"
  exit 0
fi
if [ "$OBS_ONLY" = 1 ] && [ "$DOCS_ONLY$FLEET_ONLY$RUN_SLOW$RUN_COV$SANITIZE_ONLY" = "00000" ]; then
  run_obs
  echo
  echo "observability stage passed"
  exit 0
fi
if [ "$FLEET_ONLY" = 1 ] && [ "$DOCS_ONLY$OBS_ONLY$RUN_SLOW$RUN_COV$SANITIZE_ONLY" = "00000" ]; then
  run_fleet
  echo
  echo "fleet and transport stage passed"
  exit 0
fi

echo "== C kernels: warnings are errors (syntax, then as shipped and for x86-64-v3; the shipped flags stay) =="
gcc -fsyntax-only -Wall -Wextra -Werror src/repro/polymath/*.c
# The optimiser's flow analysis (-Wmaybe-uninitialized, -Warray-bounds,
# -Wstringop-overflow) only runs when the file is really compiled; an
# x86-64-v3 build has no AVX-512, so it compiles the word-by-word loops
# that other targets run. The flags are kernels.CFLAGS (importing it
# builds the kernel), less -shared, with -march=native swapped for the
# target.
read -r -a CFLAGS <<< "$(PYTHONPATH=src python -c \
  'from repro.polymath.kernels import CFLAGS; print(*(f for f in CFLAGS if f != "-shared"))')"
for source in src/repro/polymath/*.c; do
  for march in native x86-64-v3; do
    gcc "${CFLAGS[@]/#-march=native/-march=$march}" -Wall -Wextra -Werror \
      -c -o /dev/null "$source"
  done
done

echo
echo "== tier-1 test suite =="
# Includes the transport concurrency battery (tests/service/test_transport.py),
# the frame and control-codec fuzz suite, driven by the codec's layout table
# so every control tag is fuzzed (tests/property/test_property_transport.py),
# the golden control-frame bytes and field range checks
# (tests/service/test_wire_golden.py + wire_golden.json), the spec/codec
# tag-table drift check (tests/service/test_wire_doc_tables.py), the fleet
# link suites (a fleet job matches the chip pool's bytes, cycles and
# fidelity; settled jobs keep no operands; keys re-sent to a worker
# exactly when their upload digests change; the fault shim frame by frame;
# tests/service/test_fleet_parity.py, test_fault_shim.py,
# test_client_link.py), the result cache's key part taken from the
# digests stored at upload (tests/service/test_result_cache.py), the
# public-key parameter check at OPEN_SESSION (tests/service/test_server.py),
# every emitted `repro_*` metric in a docs metrics table
# (tests/service/test_metric_docs.py), the
# circuit wire-format fuzz suite (tests/property/test_property_circuit_wire.py),
# the word-backed polynomial codec suite (word decode and range check vs
# the per-coefficient decode, word vs int forms, decompose of words;
# tests/property/test_property_word_codec.py), the shared-tensor suite
# (the chip pool cross-checks against the scheme's own tensor rows;
# tests/service/test_shared_tensor_rows.py), the lazy-reduction suite
# (each modular sum of the RNS engine at its largest term count, all-(q-1)
# operands vs exact Python ints, on a 19-tower basis, and
# `kernels.reduce` against np.remainder at the old int64/uint64 sums'
# edges; tests/property/test_property_lazy_reduction.py), the C kernels
# against the numpy expressions they replaced (smallest and largest
# moduli, n = 2 to 2^14, all-maximal inputs; the replay's reads of bank
# words mod q; an x86-64-v3 build, the word-by-word loops, bit-identical
# to the native one; tests/property/test_property_kernels.py), the NTT kernel's shape and
# degree-range tests (multi-row multi-tower stacks, strided int64/uint64
# input, n = 2 and n = 2^14 against NttContext;
# tests/property/test_property_engine.py), its build-cache tests (two
# concurrent first imports, into an empty cache or over a stale build; no
# gcc on PATH; tests/polymath/test_kernel_build.py), the failed fleet job's cycles
# (tests/service/test_job_accounting.py),
# the app-circuit serving suites (tests/service/test_circuit_*.py), the
# app circuits' pinned wire-byte digests (tests/apps/test_circuit_bytes.py),
# and the
# golden chip-statistics snapshot of the Algorithm 3 replay
# (tests/core/test_chip_golden.py, n up to 2^12 in about two seconds;
# every vector case runs a second, warm time on one driver), the warm
# replay equivalence suite (a stream computed by its compiled program
# equals its per-command run in outputs, report and every counter,
# pools of 1 and 4; a changed twiddle word runs it per command; a warm
# tower is one kernel call; tests/property/test_property_warm_replay.py), the
# warm-fault suite (a broken Algorithm 3 stream on a warmed pool still
# fails "datapath fault"; tests/service/test_warm_fault.py),
# the pool-scaling claims, toy pools of 1/2/4 and a pool of 4 at n = 2^12
# at least 1.5x shorter in makespan than a pool of 1
# (tests/service/test_pool_scaling_paper.py), the skewed-tenant
# spill-over gate (>= 1.3x makespan on a thread fleet of 4;
# tests/service/test_fleet_faults.py),
# and the `repro-serve` entry point itself: a spawned listener over a
# 2-process fleet driven over TCP, then drained by SIGINT
# (tests/service/test_cli.py).
python -m pytest -x -q

echo
echo "== layered serving benchmark (bench/tests + four workloads at toy degree) =="
python -m pytest bench/tests -q
for workload in evalmult_inproc_serial dense16_inproc_serial \
                evalmult_tcp_wave4 evalmult_fleet_wave2; do
  python3 bench/run.py --quick --workload "$workload" --seed 1
done

run_docs

run_obs

run_fleet

run_sanitize

echo
echo "== examples smoke (3 tenants over the wire transport) =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python examples/encrypted_service_demo.py

if [ "$RUN_COV" = 1 ]; then
  run_cov
fi

if [ "$RUN_SLOW" = 1 ]; then
  echo
  echo "== paper-scale tests (--slow) =="
  python -m pytest --slow -m paper_scale tests -q
fi

echo
echo "== line counts (tracked in ROADMAP.md; printed, not gated) =="
echo "src/repro/service: $(cat src/repro/service/*.py | wc -l)"
echo "src/repro/core: $(cat src/repro/core/*.py | wc -l)"
echo "src/repro/polymath: $(cat src/repro/polymath/*.py src/repro/polymath/*.c | wc -l)"
echo "src/repro/apps: $(cat src/repro/apps/*.py | wc -l)"
echo "src/: $(cat src/repro/*.py src/repro/*/*.py | wc -l)"

echo
echo "all checks passed"
