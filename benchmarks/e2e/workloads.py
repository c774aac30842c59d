"""The five workloads: generated inputs, a volume each, the timed call.

Everything a workload does is generated from the seed before the timed
region starts; the program only ever sees the generated operations.
:func:`setup` builds one *round*: a freshly formatted and mounted
``FULL``-scale (or, for the smoke test, ``SMALL``-scale) volume, the
files the workload expects to find, and the client work.  ``round.run()``
is the timed region and nothing else.

Serial workloads (``makedo_build``, ``read_stream``, ``crash_recovery``)
are scripts of operation tuples executed by :class:`ScriptRunner`, which
takes the simulated-clock delta around every adapter call and checks
every byte it reads against a CRC computed at generation time from
``payload(size, seed)``.  The traffic workloads hand a seeded
``TrafficConfig`` to the repository's own ``TrafficEngine``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from zlib import crc32

from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.errors import DiskError, FileNotFound, FsError
from repro.harness import scenarios
from repro.harness.adapters import FsdAdapter
from repro.workloads.generators import PaperFileSizes, payload
from repro.workloads.traffic import MUTATING, TrafficConfig, TrafficEngine

PAGE_BYTES = 512

#: how often a round lets the measuring side in (see ``calib.py``).
INTERRUPTS = 11


@dataclass(frozen=True)
class Sizes:
    """Every size knob, per scale."""

    scale: scenarios.Scale
    makedo_modules: int
    steady_clients: int
    steady_ops: int
    steady_population: int
    burst_clients: int
    burst_ops: int
    data_cache_pages: int
    stream_files: int
    stream_file_bytes: int
    stream_passes: int
    stream_hot_files: int
    stream_hot_reads: int
    stream_cold_reads: int
    recovery_populate: int
    recovery_cycles: int
    recovery_creates: int
    recovery_deletes: int


SIZES = {
    "full": Sizes(
        scale=scenarios.FULL,
        makedo_modules=1500,
        steady_clients=8, steady_ops=1200, steady_population=200,
        burst_clients=1000, burst_ops=10,
        data_cache_pages=4096,
        stream_files=48, stream_file_bytes=512 * 1024, stream_passes=3,
        stream_hot_files=3, stream_hot_reads=20_000,
        stream_cold_reads=60_000,
        recovery_populate=3000, recovery_cycles=20,
        recovery_creates=120, recovery_deletes=40,
    ),
    "smoke": Sizes(
        scale=scenarios.SMALL,
        makedo_modules=20,
        steady_clients=3, steady_ops=40, steady_population=20,
        burst_clients=40, burst_ops=4,
        data_cache_pages=128,
        stream_files=6, stream_file_bytes=32 * 1024, stream_passes=2,
        stream_hot_files=1, stream_hot_reads=200, stream_cold_reads=600,
        recovery_populate=60, recovery_cycles=3,
        recovery_creates=10, recovery_deletes=4,
    ),
}

#: ``traffic_burst`` is the repository's ``traffic_1000`` fingerprint
#: scenario with the reads taken out.  With the default mix a third of
#: the operations never queue for log space and two thirds do, so the
#: median latency sits on the cliff between the two modes (1.2 s at the
#: 45th percentile, 51 s at the 55th) and moved 39 % between seeds;
#: mutations only, it sits inside the queueing mode and moves 2 %.
BURST_WEIGHTS = {"create": 0.4, "write": 0.4, "delete": 0.2,
                 "read": 0.0, "list": 0.0}

#: fixed simulated latency limits behind ``slo_miss_share``.
SLO_LIMIT_MS = {
    "makedo_build": 250.0,
    "traffic_steady": 1000.0,
    "traffic_burst": 1000.0,
    "read_stream": 100.0,
    "crash_recovery": 250.0,
}


def _sectors(size: int) -> int:
    return -(-size // PAGE_BYTES)


# ----------------------------------------------------------------------
# serial scripts
# ----------------------------------------------------------------------
class ScriptRunner:
    """Executes a script of operation tuples against one volume.

    Operation tuples (first field is the kind):

    ``("open", name, slot)``  ``("read", slot, offset, length, crc)``
    ``("create", name, size, payload_seed)``  ``("delete", name)``
    ``("list", prefix, expected_count)``  ``("force",)``
    ``("recover",)`` — crash, then mount again
    ``("read_file", name, crc)`` — a file acknowledged before the crash
    ``("gone", name)`` — a delete acknowledged before the crash
    ``("probe", name, crc)`` — a create that was never forced: it may
    be absent or intact, never torn.
    ``("think", ms)`` — client compute between two operations: idle
    simulated time, not an operation (no latency sample, not counted).

    An operation *fails* when it raises a file-system or disk error or
    its result is not the expected one.
    """

    def __init__(self, disk: SimDisk, fs: FSD, mount_options: dict,
                 obs, script: list[tuple]):
        self.disk = disk
        self.clock = disk.clock
        self.fs = fs
        self.adapter = FsdAdapter(fs)
        self.mount_options = mount_options
        self.obs = obs
        self.script = script
        self.handles: dict[int, object] = {}
        #: simulated ms around each operation, script order.
        self.latencies: list[float] = []
        self.failed: list[int] = []
        self.lost_acked = 0
        #: crash -> ``FSD.mount`` returned, simulated ms, per cycle.
        self.recovery_ms: list[float] = []
        self.mount_reports: list = []

    def run(self, interrupt=None) -> None:
        """The timed region: every operation, in order.  ``interrupt``
        is called at ``INTERRUPTS`` evenly spaced points between two
        operations (the measuring side suspends its stopwatch there)."""
        step = self.step
        script = self.script
        count = len(script)
        for part in range(INTERRUPTS + 1):
            if part and interrupt is not None:
                interrupt()
            for index in range(count * part // (INTERRUPTS + 1),
                               count * (part + 1) // (INTERRUPTS + 1)):
                step(index, script[index])

    def step(self, index: int, op: tuple) -> None:
        clock = self.clock
        if op[0] == "think":
            clock.advance_idle(op[1])
            return
        start = clock.now_ms
        try:
            ok = _OPERATIONS[op[0]](self, *op[1:])
        except (FsError, DiskError):
            ok = False
        self.latencies.append(clock.now_ms - start)
        if not ok:
            self.failed.append(index)

    def _open(self, name: str, slot: int) -> bool:
        self.handles[slot] = self.adapter.open(name)
        return True

    def _read(self, slot: int, offset: int, length: int, crc: int) -> bool:
        data = self.adapter.read_at(self.handles[slot], offset, length)
        return crc32(data) == crc

    def _create(self, name: str, size: int, payload_seed: int) -> bool:
        self.adapter.create(name, payload(size, payload_seed))
        return True

    def _delete(self, name: str) -> bool:
        self.adapter.delete(name)
        return True

    def _list(self, prefix: str, expected: int) -> bool:
        return self.adapter.list(prefix) == expected

    def _force(self) -> bool:
        self.adapter.settle()
        return True

    def _recover(self) -> bool:
        crashed_ms = self.clock.now_ms
        self.fs.crash()
        self.fs = FSD.mount(self.disk, obs=self.obs, **self.mount_options)
        self.recovery_ms.append(self.clock.now_ms - crashed_ms)
        self.adapter = FsdAdapter(self.fs)
        self.handles.clear()
        self.mount_reports.append(self.fs.mount_report)
        return True

    def _read_file(self, name: str, crc: int) -> bool:
        try:
            data = self.adapter.read(self.adapter.open(name))
        except FileNotFound:
            data = None
        if data is None or crc32(data) != crc:
            self.lost_acked += 1
            return False
        return True

    def _gone(self, name: str) -> bool:
        return not self.adapter.exists(name)

    def _probe(self, name: str, crc: int) -> bool:
        if not self.adapter.exists(name):
            return True
        return crc32(self.adapter.read(self.adapter.open(name))) == crc


_OPERATIONS = {
    "open": ScriptRunner._open,
    "read": ScriptRunner._read,
    "create": ScriptRunner._create,
    "delete": ScriptRunner._delete,
    "list": ScriptRunner._list,
    "force": ScriptRunner._force,
    "recover": ScriptRunner._recover,
    "read_file": ScriptRunner._read_file,
    "gone": ScriptRunner._gone,
    "probe": ScriptRunner._probe,
}


def makedo_script(seed: int, sizes: Sizes) -> tuple[list[tuple], list[tuple]]:
    """(files to pre-create, script).  The op shape is
    ``MakeDoWorkload``'s — per module 24 one-page reads of the source,
    a scratch create, an object create, the scratch delete, and a
    ``list`` every 10 modules — with every file size drawn per module
    from the seed (the repository's class fixes them, so its simulated
    clock would not depend on the seed at all).  Before each page read
    the client computes for a seed-drawn 0-2 ms: without it four reads
    in five cost exactly one revolution and the median latency is a
    constant of the disk model, whatever the seed or the program."""
    rng = random.Random(f"{seed}:makedo_build")
    modules = sizes.makedo_modules
    sources = [
        (f"src/mod-{index:04d}.mesa", rng.randint(11_777, 12_288), index)
        for index in range(modules)
    ]
    script: list[tuple] = []
    for index, (source, size, payload_seed) in enumerate(sources):
        if index % 10 == 0:
            script.append(("list", "src/", modules))
        script.append(("open", source, 0))
        data = payload(size, payload_seed)
        for offset in range(0, size, PAGE_BYTES):
            page = data[offset : offset + PAGE_BYTES]
            script.append(("think", rng.uniform(0.0, 2.0)))
            script.append(("read", 0, offset, len(page), crc32(page)))
        scratch = f"tmp/scratch-{index:04d}"
        script.append(
            ("create", scratch, rng.randint(1_000, 3_000), rng.randrange(1 << 16))
        )
        script.append(
            ("create", f"obj/mod-{index:04d}.bcd",
             rng.randint(16_000, 24_000), index * 7 + 1)
        )
        script.append(("delete", scratch))
    precreate = [("create", *source) for source in sources]
    return precreate, script


def read_stream_script(seed: int, sizes: Sizes) -> tuple[list[tuple], list[tuple]]:
    """Sequential passes over every file in 4 KB chunks (an ``open`` per
    file, a ``list`` per 8 files, file order shuffled per pass), then
    random one-page reads over a hot set that fits the data cache, then
    over all files (which do not), each after 0-2 ms of client compute."""
    rng = random.Random(f"{seed}:read_stream")
    count, size = sizes.stream_files, sizes.stream_file_bytes
    names = [f"stream/f{index:02d}" for index in range(count)]
    chunk = 8 * PAGE_BYTES
    pages = size // PAGE_BYTES
    chunk_crcs, page_crcs = [], []
    for index in range(count):
        data = payload(size, index)
        chunk_crcs.append([crc32(data[at : at + chunk])
                           for at in range(0, size, chunk)])
        page_crcs.append([crc32(data[at : at + PAGE_BYTES])
                          for at in range(0, size, PAGE_BYTES)])
    script: list[tuple] = []
    for _ in range(sizes.stream_passes):
        order = list(range(count))
        rng.shuffle(order)
        for position, index in enumerate(order):
            if position % 8 == 0:
                script.append(("list", "stream/", count))
            script.append(("open", names[index], index))
            for number, crc in enumerate(chunk_crcs[index]):
                script.append(("read", index, number * chunk, chunk, crc))
    hot = rng.sample(range(count), sizes.stream_hot_files)
    draws = (
        [rng.choice(hot) for _ in range(sizes.stream_hot_reads)]
        + [rng.randrange(count) for _ in range(sizes.stream_cold_reads)]
    )
    for index in draws:
        page = rng.randrange(pages)
        # Seed-drawn client compute, as in makedo_script: it puts the
        # platter at a seed-dependent angle, without which the read
        # latencies sit on a lattice and p99 is the same for any seed.
        script.append(("think", rng.uniform(0.0, 2.0)))
        script.append(
            ("read", index, page * PAGE_BYTES, PAGE_BYTES, page_crcs[index][page])
        )
    precreate = [("create", name, size, index)
                 for index, name in enumerate(names)]
    return precreate, script


def crash_recovery_script(seed: int, sizes: Sizes, live: list[str]) -> list[tuple]:
    """Cycles of {creates with a delete after every third, ``force``, one
    unforced create, crash + mount, read back every create the force
    acknowledged, check every acknowledged delete stayed deleted, probe
    the unforced create}.  ``live`` is the populated volume's file
    names; deletes pick from it and from earlier cycles' creates."""
    rng = random.Random(f"{seed}:crash_recovery")
    file_sizes = PaperFileSizes(seed=rng.randrange(1 << 30))
    live = list(live)
    script: list[tuple] = []
    every = max(1, sizes.recovery_creates // max(1, sizes.recovery_deletes))
    for cycle in range(sizes.recovery_cycles):
        created: dict[str, int] = {}
        deleted: list[str] = []
        for number in range(sizes.recovery_creates):
            name = f"work/c{cycle:02d}-f{number:03d}"
            size, payload_seed = file_sizes.sample(), rng.randrange(1 << 30)
            script.append(("create", name, size, payload_seed))
            created[name] = crc32(payload(size, payload_seed))
            live.append(name)
            if number % every == every - 1 and len(deleted) < sizes.recovery_deletes:
                position = rng.randrange(len(live))
                live[position], live[-1] = live[-1], live[position]
                victim = live.pop()
                script.append(("delete", victim))
                deleted.append(victim)
                created.pop(victim, None)
        script.append(("force",))
        unforced = f"work/c{cycle:02d}-unforced"
        size, payload_seed = file_sizes.sample(), rng.randrange(1 << 30)
        script.append(("create", unforced, size, payload_seed))
        script.append(("recover",))
        script.extend(("read_file", name, crc) for name, crc in created.items())
        script.extend(("gone", name) for name in deleted)
        script.append(("probe", unforced, crc32(payload(size, payload_seed))))
    return script


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What a finished round reports, whatever drove it."""

    attempted: int
    failed: int
    lost_acked: int
    latencies: list[float]
    #: issue -> durable for ``sync`` mutations; None where the workload
    #: has none.
    sync_latencies: list[float] | None
    ops_by_kind: dict[str, int]
    user_sectors_written: int
    recovery_ms: list[float]
    mount_reports: list


class ScriptRound:
    """A serial workload on its volume."""

    def __init__(self, runner: ScriptRunner):
        self.runner = runner
        self.disk = runner.disk

    @property
    def fs(self) -> FSD:
        return self.runner.fs

    def run(self, interrupt=None) -> None:
        self.runner.run(interrupt)

    def outcome(self) -> Outcome:
        runner = self.runner
        kinds: dict[str, int] = {}
        user_sectors = 0
        for op in runner.script:
            kinds[op[0]] = kinds.get(op[0], 0) + 1
            if op[0] == "create":
                user_sectors += _sectors(op[2])
        kinds.pop("think", None)
        return Outcome(
            attempted=sum(kinds.values()),
            failed=len(runner.failed),
            lost_acked=runner.lost_acked,
            latencies=runner.latencies,
            sync_latencies=None,
            ops_by_kind=kinds,
            user_sectors_written=user_sectors,
            recovery_ms=runner.recovery_ms,
            mount_reports=runner.mount_reports,
        )

    def audit(self) -> list[str]:
        """Nothing beyond the per-operation checks and the volume
        verification every workload gets."""
        return []


class _InterruptibleEngine(TrafficEngine):
    """``TrafficEngine`` whose event loop lets the measuring side in
    every ``every`` events.  ``_loop`` is the hook the repository's
    ``ChaosEngine`` overrides too; the events and their order are the
    base class's."""

    interrupt = None
    every = 0

    def _loop(self) -> None:
        if self.interrupt is None:
            super()._loop()
            return
        while self._heap:
            for _ in range(self.every):
                self._pump()
                if not self._heap:
                    return
            self.interrupt()


class TrafficRound:
    """A ``TrafficEngine`` run on its volume."""

    def __init__(self, disk: SimDisk, fs: FSD, config: TrafficConfig):
        self.disk = disk
        self.fs = fs
        self.engine = _InterruptibleEngine(fs, config)
        self.engine.prepare()
        # About five events per operation (arrival, bracket close,
        # read chunks, wake-ups); more only means more interrupts.
        operations = config.clients * config.ops_per_client
        self.engine.every = max(1, 5 * operations // (INTERRUPTS + 1))
        self.report = None

    def run(self, interrupt=None) -> None:
        self.engine.interrupt = interrupt
        self.report = self.engine.run()

    def outcome(self) -> Outcome:
        report, engine = self.report, self.engine
        user_sectors = sum(
            _sectors(op.size)
            for script in engine.scripts
            for op in script
            if op.kind in ("create", "write")
        )
        return Outcome(
            attempted=report.ops_issued,
            failed=report.errors + (report.ops_issued - report.ops_completed),
            lost_acked=0,
            # The report only carries rounded percentiles; the SLO share
            # needs every sample, which the engine keeps in these lists.
            latencies=engine._lat_all,
            sync_latencies=engine._sync_lat,
            ops_by_kind=dict(report.ops_by_kind),
            user_sectors_written=user_sectors,
            recovery_ms=[],
            mount_reports=[],
        )

    def audit(self) -> list[str]:
        """Read back what the scripts say must exist.  A client's
        private files are touched by that client alone, in script
        order, so their final bytes are known whatever the
        interleaving; shared files are only checked for readability."""
        problems = []
        adapter = FsdAdapter(self.fs)
        for cid, script in enumerate(self.engine.scripts):
            private = f"c{cid:04d}/"
            expected: dict[str, bytes] = {}
            for op in script:
                if not (op.kind in MUTATING and op.name.startswith(private)):
                    continue
                if op.kind == "create":
                    expected[op.name] = payload(op.size, op.seed)
                elif op.kind == "write":
                    data = payload(op.size, op.seed)
                    expected[op.name] = data + expected[op.name][len(data):]
                else:
                    del expected[op.name]
                    if adapter.exists(op.name):
                        problems.append(f"{op.name}: deleted file exists")
            for name, data in expected.items():
                try:
                    found = adapter.read(adapter.open(name))
                except (FsError, DiskError) as error:
                    problems.append(f"{name}: {error!r}")
                    continue
                if found != data:
                    problems.append(f"{name}: content differs from script")
        for rank in range(self.engine.config.population):
            name = f"pop/f{rank:04d}"
            try:
                adapter.read(adapter.open(name))
            except (FsError, DiskError) as error:
                problems.append(f"{name}: {error!r}")
        return problems


def _fresh_volume(sizes: Sizes, obs, mount_options: dict) -> tuple[SimDisk, FSD]:
    disk = SimDisk(geometry=sizes.scale.geometry)
    FSD.format(disk, sizes.scale.fsd_params)
    return disk, FSD.mount(disk, obs=obs, **mount_options)


def _script_round(sizes: Sizes, obs, mount_options: dict,
                  precreate: list[tuple], script: list[tuple]) -> ScriptRound:
    disk, fs = _fresh_volume(sizes, obs, mount_options)
    adapter = FsdAdapter(fs)
    for _, name, size, payload_seed in precreate:
        adapter.create(name, payload(size, payload_seed))
    adapter.settle()
    return ScriptRound(ScriptRunner(disk, fs, mount_options, obs, script))


def setup(name: str, seed: int, sizes: Sizes, obs=None):
    """Generate ``name``'s inputs from ``seed`` and build its volume:
    everything ``setup_s`` times.  ``obs`` is the observer every mount
    of the round attaches (None: detached)."""
    if name == "makedo_build":
        precreate, script = makedo_script(seed, sizes)
        return _script_round(sizes, obs, {}, precreate, script)
    if name == "read_stream":
        precreate, script = read_stream_script(seed, sizes)
        options = {"sched": "scan", "data_cache_pages": sizes.data_cache_pages}
        return _script_round(sizes, obs, options, precreate, script)
    if name == "crash_recovery":
        disk, fs = _fresh_volume(sizes, obs, {})
        live = scenarios.populate(
            FsdAdapter(fs), sizes.recovery_populate, seed=seed
        )
        script = crash_recovery_script(seed, sizes, live)
        return ScriptRound(ScriptRunner(disk, fs, {}, obs, script))
    if name == "traffic_steady":
        options = {"sched": "scan", "data_cache_pages": sizes.data_cache_pages,
                   "checkpoint_interval_ms": 250.0}
        config = TrafficConfig(
            clients=sizes.steady_clients, ops_per_client=sizes.steady_ops,
            seed=seed, arrival="poisson", mean_think_ms=1000.0,
            sync_fraction=0.1, population=sizes.steady_population,
        )
    elif name == "traffic_burst":
        options = {}
        config = TrafficConfig(
            clients=sizes.burst_clients, ops_per_client=sizes.burst_ops,
            seed=seed, arrival="poisson", mean_think_ms=200.0, hold_ms=1.0,
            sync_fraction=0.1, population=40, shared_fraction=0.5,
            weights=BURST_WEIGHTS,
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    disk, fs = _fresh_volume(sizes, obs, options)
    return TrafficRound(disk, fs, config)
