"""Entry point of every process ``repro`` starts.

``python -m repro``, the ``repro`` console script and each shard worker run
:func:`main`.  A worker's argument is its JSON launch document (no CLI
subcommand starts with ``{``), which goes to the worker's entry before
anything imports the CLI.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence


def _block_tls() -> None:
    """Make ``import ssl`` fail in this process.

    asyncio imports ``ssl`` only to offer TLS transports, which no served
    process opens, and the import maps libssl and libcrypto (about 5 MiB
    resident).  A ``None`` entry in ``sys.modules`` fails the import, and
    asyncio reads that as "no TLS".  Only entry points call this, so code
    that imports ``repro`` as a library can still import ``ssl``.
    """
    sys.modules.setdefault("ssl", None)  # type: ignore[arg-type, call-overload]


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI, or a shard worker when given its launch document."""
    _block_tls()
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) == 1 and args[0].startswith("{"):
        from .service.shard_worker import worker_main

        return worker_main(args[0])
    from .cli import main as cli_main

    return cli_main(args)


if __name__ == "__main__":
    sys.exit(main())
