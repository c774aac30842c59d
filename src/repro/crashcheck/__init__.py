"""Exhaustive crash-point exploration for FSD volumes.

The paper's central claim (§5.3, §5.9) is that FSD survives a crash at
*any* point in the I/O stream.  The existing fault injector can arm a
single :class:`~repro.disk.faults.CrashPlan`; this package turns it
into a systematic crash-consistency checker:

* :mod:`repro.crashcheck.workload` — recorded workloads: an op script
  is executed once against a live volume while a recorder captures
  every disk mutation and every group-commit acknowledgement,
* :mod:`repro.crashcheck.engine` — the explorer: enumerate every I/O
  boundary of the recording (and every torn-write variant the
  weak-atomic model allows), synthesize the exact disk image a crash
  there would leave, remount, and run the oracles,
* :mod:`repro.crashcheck.oracles` — the pluggable recovery oracles:
  structural (offline verify in strict mode), cache-coherence (no
  post-crash read observes pre-crash cached data) and semantic
  (committed operations fully present; uncommitted ones
  atomic-or-absent),
* :mod:`repro.crashcheck.scenarios` — named workload scenarios built
  on the harness adapters so they run on any adapter-shaped volume,
* :mod:`repro.crashcheck.cli` — the ``python -m repro crashcheck``
  front end.
"""

from repro.crashcheck.engine import (
    CrashImage,
    SweepSummary,
    Violation,
    explore,
    materialize,
)
from repro.crashcheck.oracles import (
    CacheCoherenceOracle,
    Oracle,
    OracleContext,
    SemanticOracle,
    StructuralOracle,
    default_oracles,
)
from repro.crashcheck.scenarios import (
    SCENARIOS,
    CrashScenario,
    get_scenario,
)
from repro.crashcheck.workload import (
    DiskRecorder,
    IoRec,
    Op,
    Recording,
    record_scenario,
)

__all__ = [
    "CacheCoherenceOracle",
    "CrashImage",
    "CrashScenario",
    "DiskRecorder",
    "IoRec",
    "Op",
    "Oracle",
    "OracleContext",
    "Recording",
    "SCENARIOS",
    "SemanticOracle",
    "StructuralOracle",
    "SweepSummary",
    "Violation",
    "default_oracles",
    "explore",
    "get_scenario",
    "materialize",
    "record_scenario",
]
