"""Deterministic fault injection at engine kernel boundaries.

The service's retries and typed engine errors only earn their keep if the
failure branches actually run — in CI, not just in production incidents.
This module lets tests (and operators) *arm* named fault sites; an armed
site makes the engine that checks it raise
:class:`~repro.runtime.errors.InjectedFaultError` at a well-defined kernel
boundary, which exercises the retry path a transient engine fault takes.

Fault sites currently wired into the code (rendered from :data:`SITES`):

{sites}

Arming is explicit and three-way togglable:

* **API** — ``faults.arm("xpath.bitset")`` / ``faults.disarm()``, the
  scoped ``with faults.inject("xpath.bitset"): ...`` (disarms that one site
  on exit), or ``with faults.scoped("xpath.bitset"): ...`` (snapshots and
  restores the *whole* registry, so pre-existing arming — e.g. from the
  environment — survives the block and nothing armed inside it leaks out);
* **environment** — ``REPRO_FAULTS="xpath.bitset,logic.bitset.tc:2"``
  (comma-separated sites, optional ``:count`` arms only the first *count*
  checks), parsed on import and on :func:`reload_from_env`;
* **CLI** — ``--inject-fault SITE`` on the evaluation subcommands.

The registry is shared mutable state, so test suites should isolate it (the
repo's ``tests/conftest.py`` snapshots and restores it around every test).
Counted decrements in :func:`check` take a lock, making concurrent checks
from service workers safe; the disarmed fast path stays a lock-free
truthiness test of an empty dict, so leaving the checks compiled into the
engines costs nothing measurable.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

from .. import obs
from .errors import InjectedFaultError

__all__ = [
    "FAULTS_ENV_VAR",
    "SITES",
    "arm",
    "disarm",
    "armed_sites",
    "check",
    "inject",
    "scoped",
    "reload_from_env",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Where each wired site fires, in documentation order.
_WHERE = {
    "xpath.bitset": "entry of every public ``BitsetEvaluator`` method",
    "xpath.bitset.star": "inside the batched Kleene-star frontier sweep",
    "logic.bitset": "entry of every public ``BitsetModelChecker`` method",
    "logic.bitset.tc": "inside every ``[TC]`` sweep: the semi-naive closure "
    "of a ``[TC]`` table and the frontier sweep of a semi-join",
    "automata.bitset": "entry of the bit-parallel configuration sweep",
    "service.worker": "start of every engine run: in the service worker's "
    "thread, or inside the owning shard for a sharded read",
    "trees.mutate": "inside :meth:`TreeRegistry.mutate`, before the edit is "
    "applied (the pre-publish atomicity boundary)",
    "wal.append": "inside :meth:`WriteAheadLog._append`, before the record "
    "reaches the log (the mutation aborts with both the log and the "
    "registry untouched)",
    "service.shard_kill": "checked by the shard supervisor once per poll "
    "tick; each fire SIGKILLs one live shard process",
    "store.load": "entry of :meth:`TreeStore.load`, before the file is "
    "opened (a cold load or a shard's refresh fails; the next touch retries)",
}

#: Every fault site the code checks.  Names arriving from outside the
#: process (``REPRO_FAULTS``, ``--inject-fault``) must be one of these, so a
#: chaos run naming a removed or misspelt site fails instead of arming
#: nothing; the table in this module's docstring is rendered from it too.
SITES = tuple(_WHERE)


def _site_table() -> str:
    width = max(len(site) for site in SITES) + 4
    rule = "=" * width + "  " + "=" * 52
    rows = [f"{'``' + site + '``':<{width}}  {_WHERE[site]}" for site in SITES]
    return "\n".join([rule, *rows, rule])


if __doc__:  # stripped under ``python -OO``
    __doc__ = __doc__.replace("{sites}", _site_table())

#: Armed sites: site -> remaining trigger count (None = every check fires).
_armed: dict[str, int | None] = {}

#: Guards counted decrements and snapshot/restore against concurrent checks.
_lock = threading.Lock()


def arm(site: str, times: int | None = None) -> None:
    """Arm ``site``: its next ``times`` checks (all, when None) will raise."""
    if times is not None and times <= 0:
        raise ValueError(f"times must be positive, got {times!r}")
    with _lock:
        _armed[site] = times


def disarm(site: str | None = None) -> None:
    """Disarm one site, or every site when called without arguments."""
    with _lock:
        if site is None:
            _armed.clear()
        else:
            _armed.pop(site, None)


def armed_sites() -> dict[str, int | None]:
    """A snapshot of the armed sites (site -> remaining count)."""
    with _lock:
        return dict(_armed)


def check(site: str) -> None:
    """The fault point: raise iff ``site`` is armed.  Called by engines."""
    if not _armed:
        return
    with _lock:
        remaining = _armed.get(site, 0)
        if remaining == 0:  # not armed (counted arms are removed at zero)
            return
        if remaining is not None:
            if remaining == 1:
                del _armed[site]
            else:
                _armed[site] = remaining - 1
    # Counted on the raise path only: the disarmed fast path above stays a
    # lock-free dict truthiness test with no metrics work.
    obs.counter("faults_injected_total", site=site).inc()
    raise InjectedFaultError(site)


@contextmanager
def inject(site: str, times: int | None = None):
    """Scoped arming: ``with faults.inject("xpath.bitset"): ...``.

    Disarms exactly that one site on exit.  If the site was already armed
    before entry, that arming is lost — use :func:`scoped` when the
    surrounding state must survive.
    """
    arm(site, times)
    try:
        yield
    finally:
        disarm(site)


@contextmanager
def scoped(*sites: "str | tuple[str, int]"):
    """Registry-isolating arming: snapshot on entry, full restore on exit.

    ``sites`` entries are either a site name (armed for every check) or a
    ``(site, times)`` pair (counted).  Unlike :func:`inject`, *any* mutation
    made inside the block — arming, disarming, counted decrements — is
    rolled back to the entry snapshot, so environment-armed sites and other
    pre-existing state pass through untouched::

        with faults.scoped("xpath.bitset", ("logic.bitset.tc", 2)):
            ...  # the two sites fire here
        ...      # registry exactly as before the block
    """
    with _lock:
        snapshot = dict(_armed)
    try:
        for entry in sites:
            if isinstance(entry, tuple):
                arm(entry[0], entry[1])
            else:
                arm(entry)
        yield
    finally:
        with _lock:
            _armed.clear()
            _armed.update(snapshot)


def reload_from_env(value: str | None = None) -> None:
    """(Re)arm sites from ``REPRO_FAULTS`` (or an explicit spec string).

    Spec grammar: comma-separated ``site`` or ``site:count`` entries;
    whitespace around entries is ignored; an empty/unset variable disarms
    nothing (call :func:`disarm` for that).  A site not in :data:`SITES`
    raises ``ValueError`` before anything is armed.
    """
    spec = os.environ.get(FAULTS_ENV_VAR, "") if value is None else value
    arms = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        site, colon, count = entry.partition(":")
        site = site.strip()
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r} in {FAULTS_ENV_VAR}; "
                f"expected one of {', '.join(SITES)}"
            )
        arms.append((site, int(count) if colon else None))
    for site, times in arms:
        arm(site, times)


reload_from_env()
