"""``BENCHMARK.json`` against the code, and the ``--quick`` smoke runs."""

import json
import os
import re
import subprocess
import sys

from conftest import BENCH, ROOT, last_json, run_bench

import spec

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_contract_schema_and_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CONTRACT["command"] == ["python3", "bench/run.py"]
    assert CONTRACT["paths"] == ["bench"]
    assert CONTRACT["run_seconds"] == spec.RUN_SECONDS
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = []
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_contract_workloads_are_the_spec():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS
    ]
    # The time cap: 4 + 22 x workloads runs in 3420 s.
    assert (4 + 22 * len(spec.WORKLOADS)) * 37 <= 3420
    for workload in spec.WORKLOADS:
        waves, builds = spec.scaled(workload, 0.01)
        assert waves == spec.MIN_WAVES and builds == spec.MIN_BUILDS
        assert spec.scaled(workload, 1.0) == (workload.waves, workload.builds)


def test_src_never_imports_the_bench():
    pattern = re.compile(r"^\s*(from|import)\s+(bench|calib|ladder|workloads)\b")
    for path in (ROOT / "src").rglob("*.py"):
        for line in path.read_text().splitlines():
            assert not pattern.match(line), f"{path}: {line}"


def test_refuses_env_switches_and_a_missing_tree(tmp_path):
    env = dict(os.environ, REPRO_ENGINE="off")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload",
         spec.WORKLOADS[0].name], cwd=str(ROOT), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "REPRO_ENGINE" in proc.stderr
    # A directory holding only BENCHMARK.json and bench/: nothing to measure.
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (bare / "bench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload",
         spec.WORKLOADS[0].name, "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=str(bare),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert run_bench("--workload", "no_such_workload").returncode != 0


def test_quick_smoke_prints_every_end_to_end_metric(smoke):
    wanted = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    for workload in spec.WORKLOADS:
        proc = smoke[(workload.name, "1", "0")]
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = last_json(proc)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= spec.MIN_WAVES * workload.width
        assert {
            n: m["unit"] for n, m in line["metrics"].items()
        } == wanted
        assert all(m["value"] > 0 for m in line["metrics"].values())
        assert "failed_frac" in proc.stdout and "fingerprint" in proc.stdout
        assert '"cal_ref_s": 0.0125' in proc.stdout


def test_exact_metrics_repeat_across_seeds(smoke):
    first = spec.WORKLOADS[0].name
    one = last_json(smoke[(first, "1", "0")])["metrics"]
    two = last_json(smoke[(first, "2", "0")])["metrics"]
    for name in ("model_cycles_per_job", "wire_bytes_per_job"):
        assert one[name]["value"] == two[name]["value"]
    # ...and across stacks that serve the same jobs.
    tcp = last_json(smoke[("evalmult_tcp_wave4", "1", "0")])["metrics"]
    for name in ("model_cycles_per_job", "wire_bytes_per_job"):
        assert one[name]["value"] == tcp[name]["value"]


def test_quick_trace_prints_every_per_layer_metric(smoke):
    proc = smoke[(spec.WORKLOADS[0].name, "1", "1")]
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = last_json(proc)
    assert line["correct"] is True and line["failed"] == 0
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT["per_layer"]
    }
    assert line["metrics"]["server.cache_hits"]["value"] == 0
    assert line["metrics"]["fleet.deaths"]["value"] == 0
    trace = json.loads((BENCH / "out" / "trace.json").read_text())
    spans = trace["spans"]
    assert {"wave", "server.submit", "transport.result",
            "bfv.multiply_ms"} <= {s["name"] for s in spans}
    children = [s for s in spans if s["name"] == "server.submit"]
    assert all(spans[s["parent"]]["name"] == "wave" for s in children)
