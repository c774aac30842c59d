"""The mount options as command-line flags.

Every subcommand that mounts a volume (``put`` … ``verify``,
``traffic``, ``chaos``, ``stats``, ``trace``, ``crashcheck``) takes the
same three flags; they are declared here once, with the defaults of
:class:`~repro.core.fsd.MountOptions`.
"""

from __future__ import annotations

from repro.core.fsd import MountOptions


def add_mount_arguments(parser) -> None:
    """Add ``--data-cache-pages``, ``--readahead`` and
    ``--checkpoint-ms`` to ``parser``."""
    defaults = MountOptions()
    parser.add_argument(
        "--data-cache-pages", type=int, default=defaults.data_cache_pages,
        metavar="N",
        help="demanded and written data sectors kept cached "
             f"(default {defaults.data_cache_pages}: read-ahead only)",
    )
    parser.add_argument(
        "--readahead", type=int, default=defaults.readahead_pages,
        metavar="N",
        help="sequential read-ahead window in pages (default: "
             f"{defaults.readahead_pages}; 0: the paper's mount)",
    )
    parser.add_argument(
        "--checkpoint-ms", type=float,
        default=defaults.checkpoint_interval_ms, metavar="MS",
        help="run the background checkpointer every MS simulated ms "
             "(default: off — third entries write home synchronously)",
    )


def mount_options(args) -> MountOptions:
    """The :class:`MountOptions` a namespace parsed with
    :func:`add_mount_arguments` asks for."""
    return MountOptions(
        data_cache_pages=args.data_cache_pages,
        readahead_pages=args.readahead,
        checkpoint_interval_ms=args.checkpoint_ms,
    )
