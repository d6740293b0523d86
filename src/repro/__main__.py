"""Entry point of every process ``repro`` starts.

``python -m repro``, the ``repro`` console script and each shard worker run
:func:`main`.  A worker's argument is its JSON launch document (no CLI
subcommand starts with ``{``), which goes to the worker's entry before
anything imports the CLI.  Before either, :func:`main` blocks ``ssl`` and
caps NumPy's BLAS at one thread, so that no served process maps OpenSSL or
starts a BLAS thread pool.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence

#: The variables OpenBLAS reads its thread count from.  Any one of them set
#: is the user's choice, and :func:`_single_threaded_blas` leaves it alone.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _block_tls() -> None:
    """Make ``import ssl`` fail in this process.

    asyncio imports ``ssl`` only to offer TLS transports, which no served
    process opens, and the import maps libssl and libcrypto (about 5 MiB
    resident).  A ``None`` entry in ``sys.modules`` fails the import, and
    asyncio reads that as "no TLS".  Only entry points call this, so code
    that imports ``repro`` as a library can still import ``ssl``.
    """
    sys.modules.setdefault("ssl", None)  # type: ignore[arg-type, call-overload]


def _single_threaded_blas() -> None:
    """Have NumPy's OpenBLAS start without a thread pool in this process.

    When NumPy loads, OpenBLAS starts a thread for each CPU beyond the
    first, and each spins for tens of milliseconds of CPU before it sleeps.
    No served code path calls BLAS, so in a sharded tree those threads only
    compete with the workers' boots.  The variable must be set before NumPy
    loads, and subprocesses inherit it.  A thread count the environment
    already names wins.  Only entry points call this, so code that imports
    ``repro`` as a library keeps its environment.
    """
    if not any(os.environ.get(name) for name in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI, or a shard worker when given its launch document."""
    _block_tls()
    _single_threaded_blas()
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) == 1 and args[0].startswith("{"):
        from .service.shard_worker import worker_main

        return worker_main(args[0])
    from .cli import main as cli_main

    return cli_main(args)


if __name__ == "__main__":
    sys.exit(main())
