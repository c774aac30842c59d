"""Host-runtime gate: harness wall clock against the committed baseline.

Everything else in ``benchmarks/`` reports *simulated* milliseconds;
this one measures the Python harness itself, on the two workloads the
event-driven core optimises:

* **makedo** — the paper's t300 build, a serial metadata-heavy client;
* **traffic** — the seeded 1000-client engine, whose event loop jumps
  the clock between wake-ups with ``SimClock.advance_to`` instead of
  stepping-and-polling.

Each takes the best wall time of ``BENCH_RUNTIME_ROUNDS`` rounds and
records its section of the ``BENCH_runtime.json`` document that
``repro bench diff --fail-over`` gates in CI — so a PR that loses the
extent-batched I/O core's or the event-driven core's speedup fails
loudly instead of silently.

The simulated clock is asserted identical across rounds: wall time may
wobble with the host, but the simulation itself must be deterministic.

Environment knobs (CI sets these):

* ``BENCH_RUNTIME_SCALE`` — ``t300`` (default) or ``small``
* ``BENCH_RUNTIME_MODULES`` — translation units (default 300 / 20)
* ``BENCH_RUNTIME_CLIENTS`` — traffic clients (default 1000 / 100)
* ``BENCH_RUNTIME_ROUNDS`` — timing rounds, best-of (default 3)
* ``BENCH_RUNTIME_OUT`` — output path (default BENCH_runtime_ci.json,
  git-ignored; name ``BENCH_runtime.json`` to re-capture the baseline)
* ``BENCH_RUNTIME_SEED_WALL_S`` — optional wall seconds of the
  pre-batching seed's makedo on this machine; when set, the document
  records the honest speedup next to the measurement.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.harness.adapters import FsdAdapter
from repro.harness.scenarios import FULL, SMALL
from repro.workloads.makedo import MakeDoWorkload
from repro.workloads.traffic import TrafficConfig, TrafficEngine

REPO_ROOT = Path(__file__).resolve().parent.parent

SCALE_NAME = os.environ.get("BENCH_RUNTIME_SCALE", "t300")
SCALE = {"t300": FULL, "small": SMALL}[SCALE_NAME]
MODULES = int(
    os.environ.get(
        "BENCH_RUNTIME_MODULES", "300" if SCALE_NAME == "t300" else "20"
    )
)
CLIENTS = int(
    os.environ.get(
        "BENCH_RUNTIME_CLIENTS", "1000" if SCALE_NAME == "t300" else "100"
    )
)
ROUNDS = int(os.environ.get("BENCH_RUNTIME_ROUNDS", "3"))
OUT_PATH = Path(
    os.environ.get("BENCH_RUNTIME_OUT", REPO_ROOT / "BENCH_runtime_ci.json")
)
SEED_WALL_S = os.environ.get("BENCH_RUNTIME_SEED_WALL_S")


def _merge_section(name: str, section: dict) -> None:
    """Install one workload's results into the shared document, keeping
    the other section if a previous test in this run already wrote it."""
    document = {"benchmark": "runtime", "schema_version": 2}
    if OUT_PATH.exists():
        try:
            existing = json.loads(OUT_PATH.read_text())
        except (ValueError, OSError):
            existing = {}
        if (
            existing.get("benchmark") == "runtime"
            and existing.get("schema_version") == 2
        ):
            document = existing
    document[name] = section
    OUT_PATH.write_text(json.dumps(document, indent=2) + "\n")


def _makedo_once() -> tuple[float, float]:
    """One full makedo build on a fresh volume: (wall_s, sim_now_ms)."""
    disk = SimDisk(geometry=SCALE.geometry)
    FSD.format(disk, SCALE.fsd_params)
    fs = FSD.mount(disk)
    adapter = FsdAdapter(fs)
    workload = MakeDoWorkload(modules=MODULES)
    start = time.perf_counter()
    workload.setup(adapter)
    workload.run(adapter)
    fs.unmount()
    wall = time.perf_counter() - start
    return wall, disk.clock.now_ms


def _traffic_once() -> tuple[float, float]:
    """One seeded multi-client traffic run: (wall_s, sim_now_ms).

    Same scenario as the bit-identity fingerprint's ``traffic_1000``:
    Poisson arrivals, 10% synchronous mutations, shared-file skew."""
    disk = SimDisk(geometry=SCALE.geometry)
    FSD.format(disk, SCALE.fsd_params)
    fs = FSD.mount(disk)
    config = TrafficConfig(
        clients=CLIENTS,
        ops_per_client=2,
        seed=1987,
        arrival="poisson",
        mean_think_ms=200.0,
        hold_ms=1.0,
        sync_fraction=0.1,
        population=40,
        shared_fraction=0.5,
    )
    engine = TrafficEngine(fs, config)
    start = time.perf_counter()
    engine.run()
    fs.unmount()
    wall = time.perf_counter() - start
    return wall, disk.clock.now_ms


def _measure(once, body, label: str) -> tuple[list[float], float]:
    """Warmup + best-of-ROUNDS timing; asserts a deterministic clock."""

    def run():
        body()  # discarded warmup: allocator and cache effects
        return [body() for _ in range(ROUNDS)]

    rounds = once(run)
    walls = [wall for wall, _ in rounds]
    clocks = {clock for _, clock in rounds}
    # Wall time is the host's business; the simulation must not wobble.
    assert len(clocks) == 1, f"{label}: non-deterministic simulated clock"
    assert min(walls) > 0
    return walls, rounds[0][1]


def test_runtime_makedo(once):
    walls, sim_now = _measure(once, _makedo_once, "makedo")
    best = min(walls)
    section = {
        "scale": SCALE_NAME,
        "modules": MODULES,
        "rounds": ROUNDS,
        "best_wall_s": round(best, 4),
        "mean_wall_s": round(sum(walls) / len(walls), 4),
        "sim_now_ms": sim_now,
    }
    if SEED_WALL_S is not None:
        seed_wall = float(SEED_WALL_S)
        section["reference"] = {
            "seed_wall_s": seed_wall,
            "speedup_vs_seed": round(seed_wall / best, 2),
        }
    _merge_section("makedo", section)
    print(
        f"makedo {SCALE_NAME} x{MODULES}: best {best:.3f} s wall over "
        f"{ROUNDS} rounds (sim {sim_now / 1000:.1f} s); wrote {OUT_PATH}"
    )


def test_runtime_traffic(once):
    walls, sim_now = _measure(once, _traffic_once, "traffic")
    best = min(walls)
    section = {
        "scale": SCALE_NAME,
        "clients": CLIENTS,
        "ops_per_client": 2,
        "rounds": ROUNDS,
        "best_wall_s": round(best, 4),
        "mean_wall_s": round(sum(walls) / len(walls), 4),
        "sim_now_ms": sim_now,
    }
    _merge_section("traffic", section)
    print(
        f"traffic {SCALE_NAME} x{CLIENTS} clients: best {best:.3f} s wall "
        f"over {ROUNDS} rounds (sim {sim_now / 1000:.1f} s); wrote {OUT_PATH}"
    )
