#!/usr/bin/env python3
"""A tour of FSD's robustness claims under fault injection (§5.8).

Run:  python examples/fault_injection_tour.py

The paper claims FSD is robust against six error classes CFS was not.
This example injects each fault the simulator supports and shows the
defence that catches it:

1. a damaged name-table sector  -> repaired from the twin copy,
2. a damaged log sector         -> record recovered from its duplicate,
3. a torn multi-sector write    -> end-page check discards the record,
4. a wild write on a leader     -> leader verification raises,
5. a damaged boot page          -> root read falls back to the replica,
6. a lost VAM                   -> rebuilt from the name table.
"""

from repro import FSD, CorruptMetadata, SimDisk, SimulatedCrash
from repro.harness.scenarios import SMALL, fsd_volume
from repro.workloads.generators import payload


def main() -> None:
    disk, fs, _ = fsd_volume(SMALL)
    for index in range(40):
        fs.create(f"files/f-{index:02d}", payload(800 + index, index))
    fs.force()

    # 1. damaged name-table sector (one copy of a page).  Remount
    # first so the page really is read back from disk.
    fs.unmount()
    fs = FSD.mount(disk)
    victim, _ = fs.layout.nt_page_addresses(fs.name_table.tree._root)
    disk.faults.damage(victim)
    fs.list("files/")  # double read notices, repairs in place
    assert not disk.faults.is_damaged(victim)
    print(f"1. damaged NT sector {victim}: repaired from its twin copy")

    # 2. damaged log sector: recovery still replays the record
    fs.create("files/logged", b"survives")
    fs.force()
    log_area = fs.wal.area_start
    disk.faults.damage(log_area + max(fs.wal.write_offset - 4, 0))
    fs.crash()
    fs = FSD.mount(disk)
    assert fs.exists("files/logged")
    print("2. damaged log sector: record recovered from its duplicate pages")

    # 3. torn log write: the un-acknowledged record is discarded
    fs.create("files/torn", b"doomed")
    disk.faults.arm_crash(after_ios=0, surviving_sectors=2, damage_tail=2)
    try:
        fs.force()
    except SimulatedCrash:
        pass
    fs.crash()
    fs = FSD.mount(disk)
    assert not fs.exists("files/torn")
    assert fs.exists("files/logged")
    print("3. torn log write: end-page mismatch cleanly ends recovery scan")

    # 4. wild write (memory smash) on a leader page
    handle = fs.open("files/f-05")
    disk.poke(handle.props.leader_addr, b"\xde\xad\xbe\xef" * 32)
    try:
        fs.read(handle, 0, 100)
        print("4. FAILED: wild write on leader went unnoticed")
    except CorruptMetadata as error:
        print(f"4. wild write on leader caught: {error}")

    # 5. damaged boot page
    disk.faults.damage(fs.layout.root_a)
    fs.crash()
    fs = FSD.mount(disk)  # falls back to root copy B, repairs A
    print(f"5. damaged root page: mounted from replica (boot #{fs.boot_count})")

    # 6. lost VAM: rebuilt from the name table
    report = fs.mount_report
    print(
        f"6. VAM {'loaded' if report.vam_loaded else 'rebuilt from name table'}"
        f" in {report.vam_ms / 1000:.1f} simulated s"
    )
    files = fs.list("files/")
    print(f"\nvolume fully usable: {len(files)} files listed")


if __name__ == "__main__":
    main()
