"""Smoke test of the benchmark itself (``pytest benchmarks/e2e``; not
part of the tier-1 ``testpaths``): every workload at ``--scale smoke``
emits exactly the catalogued metrics, finite or declared null, with no
failed operation — in seconds, not minutes."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_manifest_matches_catalog():
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert manifest == catalog.manifest()
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(manifest["per_layer"]) <= 128


def test_smoke_all_workloads(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--rounds", "1", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout[-2000:]
    assert elapsed < 15, f"smoke run took {elapsed:.1f} s"
    document = json.loads(out.read_text())
    assert list(document["workloads"]) == list(catalog.WORKLOADS)
    for workload, result in document["workloads"].items():
        assert result["correct"], result["problems"]
        rows = result["end_to_end"]
        assert list(rows) == [m.name for m in catalog.END_TO_END]
        for name, row in rows.items():
            if workload in catalog.UNDEFINED_ON.get(name, ()):
                assert row["value"] is None, (workload, name)
            else:
                assert math.isfinite(row["value"]), (workload, name)
        assert rows["failed_op_share"]["value"] == 0
        assert rows["lost_acked_files"]["value"] == 0
        layers = result["per_layer"]
        expected = [m.name for m in catalog.PER_LAYER
                    if not m.name.startswith("e2e.")]
        assert list(layers) == expected
        assert all(math.isfinite(value) for value in layers.values())
        # Exact in integer ticks inside trace.summary(); the floats it
        # is reported in each round once.
        assert math.isclose(
            math.fsum(layers[f"{layer}.sim_self_ms"] for layer in catalog.LAYERS),
            rows["sim_elapsed_s"]["value"] * 1000.0, rel_tol=1e-9)


def test_driver_line(tmp_path):
    """The two forms the benchmark driver calls, on one workload."""
    manifest = catalog.manifest()
    for traced, listed in ((0, manifest["end_to_end"]), (1, manifest["per_layer"])):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
             "--workload", "crash_recovery", "--seed", "7", "--seconds", "1",
             "--trace", str(traced)],
            stdout=subprocess.PIPE, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout[-2000:]
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in listed]
        for m in listed:
            entry = line["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert math.isfinite(entry["value"])
