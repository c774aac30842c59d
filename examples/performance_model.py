#!/usr/bin/env python3
"""Design with the paper's analytical model (§6).

Run:  python examples/performance_model.py

Reproduces the design process: script every alternative in terms of
seeks, latencies, revolutions and transfers; evaluate against the
drive's timing; discard the poorer alternatives.  Also prints the
paper's worked example — the CFS one-sector-file create script — step
by step, and shows how the predictions move on a hypothetical future
drive ("slow-seeking but high-transfer-rate disks", §5).
"""

from repro.disk.geometry import TRIDENT_T300
from repro.disk.timing import DiskTiming, TRIDENT_TIMING
from repro.model import (
    ModelAssumptions,
    all_scripts,
    design_alternatives,
    predict_all,
)
from repro.model.alternatives import OPERATIONS


def show_worked_example() -> None:
    print("--- the paper's worked example: CFS one-sector-file create ---")
    scripts = all_scripts()
    script = scripts["cfs small create"]
    for label, ms in script.breakdown(TRIDENT_TIMING, TRIDENT_T300):
        print(f"  {label:<28} {ms:8.2f} ms")
    total = script.evaluate(TRIDENT_TIMING, TRIDENT_T300)
    print(f"  {'TOTAL':<28} {total:8.2f} ms\n")


def rank_alternatives(timing: DiskTiming, title: str) -> None:
    print(f"--- design alternatives on {title} ---")
    assume = ModelAssumptions()
    rows = []
    for name, scripts in design_alternatives(assume).items():
        total = sum(
            scripts[op].evaluate(timing, TRIDENT_T300) for op in OPERATIONS
        )
        rows.append((total, name))
    for total, name in sorted(rows):
        marker = "  <== chosen" if "chosen" in name else ""
        print(f"  {total:8.1f} ms  {name}{marker}")
    print()


def main() -> None:
    show_worked_example()

    print("--- per-operation predictions (Trident-class drive) ---")
    for name, prediction in predict_all(
        all_scripts(), TRIDENT_TIMING, TRIDENT_T300
    ).items():
        print(f"  {prediction}")
    print()

    rank_alternatives(TRIDENT_TIMING, "the Trident-class drive")

    # §5: "scaled well to slow-seeking but high-transfer-rate disks"
    # (the optical-disk future the author worried about).
    future = DiskTiming(
        rotation_ms=16.67,
        seek_settle_ms=20.0,   # much slower positioning
        seek_coeff_ms=4.0,
    )
    rank_alternatives(future, "a slow-seek / fast-transfer future drive")
    print(
        "The chosen design wins on both drives: central placement and\n"
        "group commit matter even more when seeks are expensive."
    )


if __name__ == "__main__":
    main()
