"""Regression: benchmark rows merge by full identity, not by op alone.

BENCH_kernels.json is shared by two writers — ``tools/bench_kernels.py``
(kernel + serving rows) and ``benchmarks/bench_service_throughput.py``
(fleet paper-scale and spill-over rows). Both used to key rows by ``op``
only, so the fleet bench's x1 row clobbered its x4 row (same op,
different engine label), and a re-run at a different degree silently
deleted the other configuration's history. Row identity is the full
``(op, n, towers, engine)`` tuple; these tests pin that contract from
both writers' sides.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def throughput_bench():
    return _load(
        "bench_service_throughput_under_test",
        REPO_ROOT / "benchmarks" / "bench_service_throughput.py",
    )


@pytest.fixture(scope="module")
def kernels_bench():
    return _load(
        "bench_kernels_under_test", REPO_ROOT / "tools" / "bench_kernels.py"
    )


def _row(op, n, towers, engine, speedup=1.0):
    return {
        "op": op, "n": n, "towers": towers, "engine": engine,
        "ns_per_op": 1000.0, "speedup_vs_pure_python": speedup,
    }


class TestMergeBenchRows:
    def test_two_runs_sharing_an_op_both_survive(
        self, throughput_bench, tmp_path, monkeypatch
    ):
        """The fleet bench's x1 and x4 rows share an op: merging the x4
        run must not clobber the x1 run's row."""
        out = tmp_path / "BENCH_kernels.json"
        monkeypatch.setattr(throughput_bench, "BENCH_JSON", out)
        x1 = _row("serve_fleet_paper", 4096, 3, "fleet-x1")
        x4 = _row("serve_fleet_paper", 4096, 3, "fleet-x4", speedup=3.1)
        throughput_bench._merge_bench_rows([x1])
        throughput_bench._merge_bench_rows([x4])
        merged = json.loads(out.read_text())
        assert x1 in merged and x4 in merged
        assert len(merged) == 2

    def test_rerun_with_same_identity_replaces_its_own_row(
        self, throughput_bench, tmp_path, monkeypatch
    ):
        out = tmp_path / "BENCH_kernels.json"
        monkeypatch.setattr(throughput_bench, "BENCH_JSON", out)
        stale = _row("serve_fleet_paper", 4096, 3, "fleet-x4", speedup=2.0)
        other = _row("serve_fleet_paper", 4096, 3, "fleet-x1")
        fresh = _row("serve_fleet_paper", 4096, 3, "fleet-x4", speedup=3.5)
        throughput_bench._merge_bench_rows([stale, other])
        throughput_bench._merge_bench_rows([fresh])
        merged = json.loads(out.read_text())
        assert fresh in merged and other in merged
        assert stale not in merged
        assert len(merged) == 2

    def test_rerun_at_different_degree_keeps_both_configurations(
        self, throughput_bench, tmp_path, monkeypatch
    ):
        out = tmp_path / "BENCH_kernels.json"
        monkeypatch.setattr(throughput_bench, "BENCH_JSON", out)
        small = _row("serve_fleet_paper", 4096, 3, "fleet-x4")
        large = _row("serve_fleet_paper", 8192, 3, "fleet-x4")
        throughput_bench._merge_bench_rows([small])
        throughput_bench._merge_bench_rows([large])
        merged = json.loads(out.read_text())
        assert small in merged and large in merged

    def test_key_is_the_full_identity_tuple(self, throughput_bench):
        row = _row("serve_fleet_paper", 4096, 3, "fleet-x1")
        assert throughput_bench._bench_row_key(row) == (
            "serve_fleet_paper", 4096, 3, "fleet-x1"
        )


class TestKernelBenchForeignRows:
    def test_foreign_rows_survive_and_owned_rows_are_replaced(
        self, kernels_bench, tmp_path
    ):
        """A bench_kernels re-run keeps the fleet bench's rows — even
        ones sharing an op with its own — and replaces only rows whose
        full identity it owns."""
        out = tmp_path / "BENCH_kernels.json"
        fleet_x1 = _row("serve_fleet_paper", 4096, 3, "fleet-x1")
        fleet_x4 = _row("serve_fleet_paper", 4096, 3, "fleet-x4")
        stale = _row("evalmult_tensor", 4096, 3, "batched-rns", speedup=9.9)
        other_engine = _row("evalmult_tensor", 4096, 3, "pure-python")
        out.write_text(
            json.dumps([fleet_x1, fleet_x4, stale, other_engine])
        )
        fresh = _row("evalmult_tensor", 4096, 3, "batched-rns", speedup=60.0)
        foreign = kernels_bench._foreign_rows([fresh], out)
        assert fleet_x1 in foreign and fleet_x4 in foreign
        assert other_engine in foreign
        assert stale not in foreign

    def test_retired_rows_are_dropped_not_carried(
        self, kernels_bench, tmp_path
    ):
        """Rows of ops the script no longer writes (the engine-vs-off
        serving rows) are nobody's: regenerating drops them, while the
        fleet bench's rows survive."""
        out = tmp_path / "BENCH_kernels.json"
        fleet = _row("serve_fleet_paper", 4096, 3, "fleet-x4")
        retired = [
            _row(op, n, 3, engine)
            for op, n in (("serve_job_software", 512),
                          ("serve_job_chip_pool", 256))
            for engine in ("pure-python", "batched-rns")
        ]
        out.write_text(json.dumps([fleet, *retired]))
        fresh = _row("evalmult_tensor", 4096, 3, "batched-rns")
        assert kernels_bench._foreign_rows([fresh], out) == [fleet]

    def test_missing_or_corrupt_file_yields_no_foreign_rows(
        self, kernels_bench, tmp_path
    ):
        missing = tmp_path / "nope.json"
        assert kernels_bench._foreign_rows([], missing) == []
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        assert kernels_bench._foreign_rows([], corrupt) == []
