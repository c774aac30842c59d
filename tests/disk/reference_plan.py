"""The write-batch planner as it was before it pruned its candidates:
every pending write of a cylinder priced at every pick.  Kept as the
reference :func:`repro.disk.sched.plan_writes` must equal, plan for
plan and float for float (``tests/disk/test_sched.py``)."""

from __future__ import annotations

from repro.disk.disk import SimDisk


def reference_plan_writes(
    disk: SimDisk, writes: list[tuple[int, list[bytes]]]
) -> list[tuple[int, float]]:
    price, timing = disk.price, disk.timing
    spc, spt = disk.geometry.sectors_per_cylinder, disk.geometry.sectors_per_track
    costs = [
        (
            address // spc, address, len(sectors),
            timing.transfer_ms(len(sectors), spt),
            (address + len(sectors) - 1) // spc,
        )
        for address, sectors in writes
    ]
    waits_for = _earlier_overlaps(writes)
    by_cylinder: dict[int, list[int]] = {}
    for index, cost in enumerate(costs):
        by_cylinder.setdefault(cost[0], []).append(index)
    now, head = disk.clock.now_ms, disk.head_cylinder
    done: set[int] = set()
    plan: list[tuple[int, float]] = []
    while by_cylinder:
        sweep = sorted(by_cylinder)
        if abs(sweep[-1] - head) < abs(sweep[0] - head):
            sweep.reverse()
        for cylinder in sweep:
            pending = by_cylinder[cylinder]
            while pending:
                best, best_ms = -1, 0.0
                for index in pending:
                    waits = waits_for[index]
                    if waits and not done.issuperset(waits):
                        continue
                    _, address, count, transfer_ms, _ = costs[index]
                    ms = price(now, head, address, count)[4] + transfer_ms
                    if best < 0 or ms < best_ms:
                        best, best_ms = index, ms
                if best < 0:
                    break  # what is left here waits on another cylinder
                pending.remove(best)
                done.add(best)
                plan.append((best, best_ms))
                now, head = best_ms, costs[best][4]
            if not pending:
                del by_cylinder[cylinder]
    return plan


def _earlier_overlaps(writes: list[tuple[int, list[bytes]]]) -> list[list[int]]:
    waits_for: list[list[int]] = [[] for _ in writes]
    by_address = sorted(range(len(writes)), key=lambda index: writes[index][0])
    for position, index in enumerate(by_address):
        end = writes[index][0] + len(writes[index][1])
        later = position + 1
        while later < len(by_address) and writes[by_address[later]][0] < end:
            pair = sorted((index, by_address[later]))
            waits_for[pair[1]].append(pair[0])
            later += 1
    return waits_for
