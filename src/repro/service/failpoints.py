"""Fault-injection failpoints for the serving tier.

A *failpoint* is a named site in the serving code path (``server.ingest``,
``server.respond``, ``journal.append``, ``snapshot.write``) that normally
does nothing.  Arming it attaches an *action* — kill the process, drop the
connection, sleep, tear a journal write, corrupt a snapshot — that fires on
the next hit(s) of that site.  The chaos test suite and the CI
``chaos-smoke`` job drive worker crashes and torn writes through this
registry instead of ad-hoc monkeypatching, so the recovery machinery is
exercised through exactly the code paths production would take.

Arming paths:

* the ``failpoint`` protocol op (``{"op": "failpoint", "spec": ...}``;
  on a sharded server an integer ``shard`` field targets one worker);
* the ``REPRO_FAILPOINTS`` environment variable, read once at server boot
  (:func:`load_from_env`).

The spec grammar is ``name=action[*count][@skip]``, comma-separated::

    server.ingest=kill@40          # SIGKILL this process on the 41st ingest
    server.respond=drop*2          # drop the next two connections
    server.respond=sleep:0.5       # one slow response
    journal.append=torn            # tear the next journal write mid-record
    snapshot.write=corrupt         # truncate the next snapshot payload

Disarmed failpoints are zero-cost beyond one truthiness check of an empty
dict — the hot ingest path pays nothing in production.

Process-wide by design: a failpoint describes *this process* failing, and
every server/worker process carries its own registry (each worker is a
fresh interpreter that imports this module anew, so a respawned worker
boots clean unless the environment re-arms it).
"""

from __future__ import annotations

import asyncio
import os
import signal
from dataclasses import dataclass
from typing import Any

__all__ = [
    "ENV_VAR",
    "FailpointError",
    "arm",
    "armed",
    "configure",
    "disarm",
    "fire",
    "fire_async",
    "load_from_env",
]

#: Environment variable holding a boot-time failpoint spec.
ENV_VAR = "REPRO_FAILPOINTS"

#: Actions :func:`fire` executes itself (the call site never sees them).
_TERMINAL_ACTIONS = frozenset(["kill", "exit", "drop", "error"])

#: Actions returned to the call site for local interpretation.
_SITE_ACTIONS = frozenset(["torn", "corrupt", "sleep"])


class FailpointError(ValueError):
    """A failpoint spec could not be parsed."""


@dataclass
class _Armed:
    """One armed failpoint: the action plus its firing schedule."""

    action: str
    param: float | None
    remaining: int
    skip: int
    hits: int = 0


_REGISTRY: dict[str, _Armed] = {}


def _parse_entry(entry: str) -> tuple[str, _Armed]:
    name, separator, spec = entry.partition("=")
    name = name.strip()
    if not separator or not name or not spec.strip():
        raise FailpointError("failpoint entry must be name=action, got %r" % (entry,))
    spec = spec.strip()
    skip = 0
    count = 1
    if "@" in spec:
        spec, _, skip_text = spec.rpartition("@")
        try:
            skip = int(skip_text)
        except ValueError:
            raise FailpointError("bad @skip in failpoint %r" % (entry,)) from None
    if "*" in spec:
        spec, _, count_text = spec.rpartition("*")
        try:
            count = int(count_text)
        except ValueError:
            raise FailpointError("bad *count in failpoint %r" % (entry,)) from None
    action, _, param_text = spec.partition(":")
    action = action.strip()
    param: float | None = None
    if param_text:
        try:
            param = float(param_text)
        except ValueError:
            raise FailpointError("bad action parameter in failpoint %r" % (entry,)) from None
    if action not in _TERMINAL_ACTIONS and action not in _SITE_ACTIONS:
        raise FailpointError(
            "unknown failpoint action %r (known: %s)"
            % (action, ", ".join(sorted(_TERMINAL_ACTIONS | _SITE_ACTIONS)))
        )
    if skip < 0 or count <= 0:
        raise FailpointError("failpoint %r needs *count > 0 and @skip >= 0" % (entry,))
    return name, _Armed(action=action, param=param, remaining=count, skip=skip)


def configure(spec: str) -> dict[str, Any]:
    """Arm every ``name=action`` entry of a comma-separated spec.

    Returns the post-arming registry description (what ``armed()`` reports),
    so the ``failpoint`` protocol op can answer with the effective state.
    """
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, state = _parse_entry(entry)
        _REGISTRY[name] = state
    return armed()


def arm(name: str, action: str, count: int = 1, skip: int = 0) -> None:
    """Arm one failpoint programmatically (tests)."""
    _, state = _parse_entry("%s=%s*%d@%d" % (name, action, count, skip))
    _REGISTRY[name] = state


def disarm(name: str | None = None) -> None:
    """Disarm one failpoint, or every failpoint when ``name`` is ``None``."""
    if name is None:
        _REGISTRY.clear()
    else:
        _REGISTRY.pop(name, None)


def armed() -> dict[str, Any]:
    """Registry description: name -> action/remaining/skip/hits."""
    return {
        name: {
            "action": state.action if state.param is None
            else "%s:%s" % (state.action, state.param),
            "remaining": state.remaining,
            "skip": state.skip,
            "hits": state.hits,
        }
        for name, state in _REGISTRY.items()
    }


def load_from_env() -> dict[str, Any]:
    """Arm from :data:`ENV_VAR`; a missing/empty variable is a no-op."""
    spec = os.environ.get(ENV_VAR, "")
    if not spec:
        return armed()
    return configure(spec)


def _evaluate(name: str) -> _Armed | None:
    """Hit-count ``name``; return the armed state when it should fire now."""
    state = _REGISTRY.get(name)
    if state is None:
        return None
    state.hits += 1
    if state.hits <= state.skip:
        return None
    if state.remaining <= 0:
        return None
    state.remaining -= 1
    if state.remaining == 0 and state.action != "sleep":
        # One-shot schedules disarm themselves so a respawned caller path
        # (or the next request) runs clean without an explicit disarm.
        _REGISTRY.pop(name, None)
    return state


def fire(name: str) -> tuple[str, float | None] | None:
    """Evaluate one failpoint hit; the common disarmed case is near-free.

    Terminal actions execute here: ``kill`` SIGKILLs the process (the chaos
    crash primitive — no atexit, no flush, exactly what a crashed worker
    looks like), ``exit`` hard-exits, ``drop`` raises
    :class:`ConnectionResetError` and ``error`` raises :class:`RuntimeError`.
    Site-interpreted actions (``torn``, ``corrupt``, ``sleep``) are returned
    as ``(action, param)`` for the call site to apply.
    """
    if not _REGISTRY:
        return None
    state = _evaluate(name)
    if state is None:
        return None
    if state.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if state.action == "exit":
        os._exit(1)
    if state.action == "drop":
        raise ConnectionResetError("failpoint %s: injected connection drop" % (name,))
    if state.action == "error":
        raise RuntimeError("failpoint %s: injected error" % (name,))
    return state.action, state.param


async def fire_async(name: str) -> tuple[str, float | None] | None:
    """Like :func:`fire`, but serves ``sleep`` actions in place."""
    if not _REGISTRY:
        return None
    outcome = fire(name)
    if outcome is not None and outcome[0] == "sleep":
        await asyncio.sleep(outcome[1] if outcome[1] is not None else 0.1)
    return outcome
