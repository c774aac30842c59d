"""Recovery oracles: what must hold after crash + remount.

Two layers, per the paper's durability contract:

* **structural** — the offline integrity sweep (:mod:`repro.core.verify`)
  passes in strict-VAM mode: every clean name-table page the mount
  left in the metadata cache equals its home copies (recovery warms
  that cache from the log), the B-tree is valid, both home copies of
  every name-table page agree, every leader verifies, no sector is
  claimed twice, and the live VAM exactly matches a rebuild.

* **semantic** — every operation the workload saw committed (a group
  commit covering it returned before the crash point) is fully
  present, byte for byte; operations after the last returned commit
  are either absent or *atomically* applied — a file is never present
  with content that no create ever wrote, nor with a number of versions
  that the prefix of operations leaving that content does not leave.

The semantic oracle models FSD's versioned namespace as per-name
version stacks.  For uncommitted ops it accepts any per-name prefix
of the pending sequence (a strict superset of the globally consistent
prefixes recovery can actually produce, so it never false-alarms, but
partial or garbled content is still always caught).

Oracles are pluggable: anything with a ``name`` and a
``check(fs, ctx) -> list[str]`` fits the engine's oracle slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, runtime_checkable

from repro.core.fsd import FSD
from repro.core.verify import verify_volume
from repro.crashcheck.workload import AppliedOp, Op, Recording

#: sentinel for "the name resolves to no file" in allowed-state sets.
ABSENT = "<absent>"


# ----------------------------------------------------------------------
# the namespace model
# ----------------------------------------------------------------------
def model_apply(stacks: dict[str, list[bytes]], op: Op) -> None:
    """Apply one op to the version-stack model of the namespace.

    Mirrors FSD semantics: a create pushes the next version (trimming
    the oldest past ``keep`` when retention is bounded); a delete pops
    the newest version, exposing the previous one if any; an in-place
    write replaces the newest version's content and a truncate cuts it
    to its first ``size`` bytes; ``set_keep`` trims the oldest versions
    past ``keep``.
    """
    if op.kind == "create":
        stack = stacks.setdefault(op.name, [])
        stack.append(op.data)
        if op.keep > 0 and len(stack) > op.keep:
            del stack[: len(stack) - op.keep]
    elif op.kind == "delete":
        stack = stacks.get(op.name)
        if stack:
            stack.pop()
            if not stack:
                del stacks[op.name]
    elif op.kind == "write":
        if op.name in stacks:
            stacks[op.name][-1] = op.data
    elif op.kind == "truncate":
        if op.name in stacks:
            stacks[op.name][-1] = stacks[op.name][-1][: op.size]
    elif op.kind == "set_keep":
        stack = stacks.get(op.name)
        if stack and op.keep > 0 and len(stack) > op.keep:
            del stack[: len(stack) - op.keep]
    elif op.kind not in ("force", "checkpoint"):  # no namespace effect
        raise NotImplementedError(f"model_apply has no case for {op.kind!r}")


def model_state(ops: list[Op]) -> dict[str, list[bytes]]:
    """The version stacks after applying ``ops`` to an empty volume."""
    stacks: dict[str, list[bytes]] = {}
    for op in ops:
        model_apply(stacks, op)
    return stacks


def allowed_versions(
    stacks: dict[str, list[bytes]], steps: Iterable[tuple[Op, int | None]]
) -> dict[str, set]:
    """Per name: the ``(version count, newest content)`` pairs recovery
    may legitimately expose once ``steps`` ran on ``stacks``,
    ``(0, ABSENT)`` for no file.

    A step ``(op, None)`` took effect.  Steps sharing a *pending group*
    number (the ops one crash lost past the last returned commit, or
    one op that raised partway) are uncertain: for each name, the ones
    that took effect are a prefix of that name's ops in the group.  A
    name no pending op touches maps to exactly one pair.
    """

    def pair(stack: tuple) -> tuple:
        return (len(stack), stack[-1]) if stack else (0, ABSENT)

    # Per name: every (stack, groups already cut short) still possible.
    worlds: dict[str, set] = {
        name: {(tuple(stack), frozenset())} for name, stack in stacks.items()
    }
    for op, group in steps:
        if op.kind in ("force", "checkpoint"):
            continue
        after = set()
        for stack, cut in worlds.get(op.name, {((), frozenset())}):
            if group in cut:
                after.add((stack, cut))
                continue
            scratch = {op.name: list(stack)} if stack else {}
            model_apply(scratch, op)
            after.add((tuple(scratch.get(op.name, ())), cut))
            if group is not None:
                after.add((stack, cut | {group}))
        worlds[op.name] = after
    return {
        name: {pair(stack) for stack, _ in states}
        for name, states in worlds.items()
    }


# ----------------------------------------------------------------------
# oracle context
# ----------------------------------------------------------------------
@dataclass
class OracleContext:
    """Everything an oracle may consult about one crash point."""

    boundary: int
    variant: str
    committed: dict[str, list[bytes]]      # version stacks, oldest first
    pending: list[AppliedOp]

    _allowed: dict[str, set] = field(default_factory=dict, repr=False)

    @classmethod
    def at(cls, recording: Recording, boundary: int, variant: str) -> "OracleContext":
        done = recording.committed_ops_at(boundary)
        committed = model_state(
            list(recording.scenario.setup)
            + [a.op for a in recording.applied[:done]]
        )
        return cls(
            boundary=boundary,
            variant=variant,
            committed=committed,
            pending=recording.pending_ops_at(boundary),
        )

    def allowed_versions(self) -> dict[str, set]:
        """Per name: the ``(version count, newest content)`` pairs
        recovery may legitimately expose (see :func:`allowed_versions`);
        the pending ops are one group, cut short wherever the crash
        point falls."""
        if not self._allowed:
            self._allowed = allowed_versions(
                self.committed, ((applied.op, 0) for applied in self.pending)
            )
        return self._allowed

    def allowed_states(self) -> dict[str, set]:
        """Per name: the set of contents (or :data:`ABSENT`) recovery
        may legitimately expose."""
        return {
            name: {content for _, content in pairs}
            for name, pairs in self.allowed_versions().items()
        }


@runtime_checkable
class Oracle(Protocol):
    """The pluggable oracle surface the engine fans out to."""

    name: str

    def check(self, fs: FSD, ctx: OracleContext) -> list[str]:
        """Return a problem string per violated invariant (empty = ok)."""
        ...


# ----------------------------------------------------------------------
# structural oracle
# ----------------------------------------------------------------------
class StructuralOracle:
    """The offline verify sweep, in strict-VAM mode by default.

    After crash recovery the VAM is freshly rebuilt from the name
    table, so even strict mode must find zero leaked sectors; any
    report at all is a recovery bug.
    """

    name = "structural"

    def __init__(self, strict_vam: bool = True):
        self.strict_vam = strict_vam

    def check(self, fs: FSD, ctx: OracleContext) -> list[str]:
        """Every verifier problem is a structural violation."""
        report = verify_volume(fs, strict_vam=self.strict_vam)
        return list(report.problems)


# ----------------------------------------------------------------------
# semantic oracle
# ----------------------------------------------------------------------
class SemanticOracle:
    """Committed ops fully present; pending ops atomic or absent."""

    name = "semantic"

    def check(self, fs: FSD, ctx: OracleContext) -> list[str]:
        """Compare the recovered namespace against the allowed states."""
        problems: list[str] = []
        allowed = ctx.allowed_states()
        versions = ctx.allowed_versions()
        present = {props.name for props in fs.list()}

        for name in sorted(present - set(allowed)):
            problems.append(f"unexpected file {name!r} after recovery")

        for name, states in sorted(allowed.items()):
            if name not in present:
                if ABSENT not in states:
                    problems.append(
                        f"committed file {name!r} lost by recovery"
                    )
                continue
            try:
                content = fs.read(fs.open(name))
                count = len(fs.versions(name))
            except Exception as error:
                problems.append(f"file {name!r} unreadable: {error}")
                continue
            if content not in states:
                kind = (
                    "committed content corrupted"
                    if ABSENT not in states
                    else "partial/garbled uncommitted state"
                )
                expected = sorted(
                    f"{len(s)}B" for s in states if s is not ABSENT
                )
                problems.append(
                    f"{kind} for {name!r}: recovered {len(content)} bytes, "
                    f"expected one of {expected or ['absent']}"
                )
            elif (count, content) not in versions[name]:
                expected = sorted(
                    n for n, s in versions[name] if s == content
                )
                problems.append(
                    f"versions of {name!r}: recovered {count} under that "
                    f"content, expected one of {expected}"
                )
        return problems


# ----------------------------------------------------------------------
# cache-coherence oracle
# ----------------------------------------------------------------------
class CacheCoherenceOracle:
    """A post-crash read must never observe cached pre-crash data.

    The data cache is volatile, so a recovered mount must start cold —
    any sector already held when the oracles run leaked across the
    crash boundary.  The oracle then reads every surviving file whole,
    straight off the platter, and again page by page — the pattern the
    read-ahead buffer of a default mount (and the LRU of a retaining
    one) serves.  The two must be byte-identical.

    Runs before :class:`SemanticOracle` (whose reads warm the cache);
    the structural sweep only touches leaders via ``fs.io``, so the
    cache is still exactly as ``FSD.mount`` left it here.
    """

    name = "cache-coherence"

    def check(self, fs: FSD, ctx: OracleContext) -> list[str]:
        """Flag a warm cache at mount; cross-check whole vs paged reads."""
        problems: list[str] = []
        cache = fs.data_cache
        if len(cache):
            problems.append(
                f"data cache holds {len(cache)} page(s) at mount "
                "— pre-crash cached data survived the crash"
            )
        if not (cache.capacity or cache.readahead_pages):
            return problems  # the paper's mount: nothing is ever held
        page = fs.disk.geometry.sector_bytes
        for props in fs.list():
            try:
                handle = fs.open(props.name)
                cold = fs.read(handle)
                warm = b"".join(
                    fs.read(handle, at, min(page, len(cold) - at))
                    for at in range(0, len(cold), page)
                )
            except Exception:
                continue  # the semantic oracle reports unreadable files
            if cold != warm:
                problems.append(
                    f"paged re-read of {props.name!r} through the data "
                    f"cache diverges from the platter copy after recovery"
                )
        return problems


def default_oracles(strict_vam: bool = True) -> list[Oracle]:
    """The standard oracle stack: structural first, then the cache
    check (while the cache is still untouched), then semantic."""
    return [
        StructuralOracle(strict_vam=strict_vam),
        CacheCoherenceOracle(),
        SemanticOracle(),
    ]
