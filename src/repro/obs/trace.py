"""Nested tracing spans with a near-zero disabled fast path.

A :class:`Span` is one named, timed stage of work: wall-clock duration,
thread-CPU duration, free-form attributes, the number of
:class:`~repro.runtime.budget.ExecutionBudget` steps drawn while it was
open, and child spans.  A :class:`Tracer` collects span trees — one stack
of open spans *per thread* (service workers trace concurrently into the
same tracer), finished roots in one shared list.

Instrumentation sites call the module-level :func:`span`::

    with obs.span("xpath.image", budget=self.budget, backend="bitset") as sp:
        ...
        sp.set(rounds=rounds)

With no tracer installed (the default), :func:`span` returns the shared
:data:`NOOP_SPAN` singleton: the disabled cost is one global load, one
``is None`` test and the ``with`` protocol on a pre-built object — no
allocation, which is what lets the engines keep their instrumentation
compiled in permanently (the ``compare_backends.py`` gate holds the *en-
abled* overhead of the public-entry spans under a few percent, bounding
the disabled overhead from above).

Enabling is explicit and scoped (``with obs.tracing() as tracer: ...``),
process-wide (:func:`install` / :func:`uninstall`), or environmental:
``REPRO_TRACE=FILE`` installs a tracer at import and dumps the span-tree
JSON to ``FILE`` at interpreter exit (``REPRO_TRACE=1`` or ``stderr``
dumps to stderr).  The CLI ``--trace`` flag wraps the same machinery
around one command.

Span-tree *structure* — the nested tuple of names, ignoring timings and
attributes — is part of the engine contract: interchangeable backends
(sets vs bitset evaluation, table vs bitset checking, deque vs bitset TWA
runs) emit the same stage names at the same nesting, which the
differential-corpus suite asserts.  See DESIGN.md for the span taxonomy.
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = [
    "NOOP_SPAN",
    "TRACE_ENV_VAR",
    "Span",
    "Tracer",
    "current_tracer",
    "install",
    "reload_from_env",
    "span",
    "structure",
    "tracing",
    "tracing_enabled",
    "uninstall",
]

TRACE_ENV_VAR = "REPRO_TRACE"


class Span:
    """One named, timed stage of work (see module docstring).

    Spans are context managers; entering starts the clocks and pushes the
    span on its tracer's per-thread stack, exiting pops and freezes it.  A
    span closes exactly once — double entry or double exit raises, which
    the property suite relies on.
    """

    __slots__ = (
        "name",
        "attrs",
        "children",
        "start",
        "end",
        "cpu_start",
        "cpu_end",
        "budget_steps",
        "_tracer",
        "_budget",
        "_state",  # 0 = created, 1 = open, 2 = closed
    )

    def __init__(self, tracer: "Tracer", name: str, budget=None, attrs=None):
        self.name = name
        self.attrs = {} if attrs is None else attrs
        self.children: list[Span] = []
        self.start = 0.0
        self.end = 0.0
        self.cpu_start = 0.0
        self.cpu_end = 0.0
        self.budget_steps = 0
        self._tracer = tracer
        self._budget = budget
        self._state = 0

    # -- attributes --------------------------------------------------------

    def set(self, **attrs) -> "Span":
        """Attach attributes (chainable; the no-op span accepts and drops)."""
        self.attrs.update(attrs)
        return self

    # -- lifecycle ---------------------------------------------------------

    # Entry and exit are the per-span hot path of every traced engine call,
    # so both read the per-thread stack straight off the tracer's
    # thread-local and do their work inline.

    def __enter__(self) -> "Span":
        if self._state != 0:
            raise RuntimeError(f"span {self.name!r} entered twice")
        self._state = 1
        tracer = self._tracer
        try:
            stack = tracer._local.stack
        except AttributeError:
            stack = tracer._stack()
        if stack:
            stack[-1].children.append(self)
        stack.append(self)
        if self._budget is not None:
            self.budget_steps = self._budget.steps
        self.cpu_start = tracer.cpu_clock()
        self.start = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._state != 1:
            raise RuntimeError(
                f"span {self.name!r} closed while not open (state {self._state})"
            )
        tracer = self._tracer
        self.end = tracer.clock()
        self.cpu_end = tracer.cpu_clock()
        if self._budget is not None:
            self.budget_steps = self._budget.steps - self.budget_steps
        if exc is not None:
            self.attrs.setdefault("error", type(exc).__name__)
        self._state = 2
        try:
            stack = tracer._local.stack
        except AttributeError:  # closed on a thread that never opened a span
            stack = None
        if not stack or stack[-1] is not self:
            raise RuntimeError(f"span {self.name!r} closed out of order")
        stack.pop()
        if not stack:
            tracer._add_root(self)
        return False

    def close(self, error: BaseException | None = None) -> None:
        """Freeze the span (normally via the ``with`` protocol)."""
        self.__exit__(None, error, None)

    # -- inspection --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._state == 2

    @property
    def wall(self) -> float:
        """Wall-clock seconds the span was open."""
        return self.end - self.start

    @property
    def cpu(self) -> float:
        """Thread-CPU seconds the span was open."""
        return self.cpu_end - self.cpu_start

    def to_json(self) -> dict:
        """A JSON-safe nested rendering (what ``--trace`` emits)."""
        payload = {
            "name": self.name,
            "wall_s": round(self.wall, 9),
            "cpu_s": round(self.cpu, 9),
        }
        if self.budget_steps:
            payload["budget_steps"] = self.budget_steps
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [child.to_json() for child in self.children]
        return payload

    def structure(self, ignore: tuple[str, ...] = ()) -> tuple:
        """The nested name tuple ``(name, (child structures...))``.

        ``ignore`` drops spans whose name starts with any given prefix
        (their children are dropped too) — used to compare backend pairs on
        the shared stage taxonomy while allowing backend-private detail.
        """
        kids = tuple(
            child.structure(ignore)
            for child in self.children
            if not child.name.startswith(ignore)
        )
        return (self.name, kids)

    def walk(self):
        """Yield this span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = {0: "created", 1: "open", 2: "closed"}[self._state]
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class _NoopSpan:
    """The shared disabled-path span: enters, exits, drops attributes."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


#: The singleton returned by :func:`span` when no tracer is installed.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects span trees from any number of threads (see module docstring)."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []

    # -- span production ---------------------------------------------------

    def span(self, name: str, budget=None, **attrs) -> Span:
        """A new (not yet entered) span; use as a context manager."""
        return Span(self, name, budget, attrs or None)

    def record(self, name: str, *, wall: float, budget_steps: int = 0, **attrs) -> Span:
        """Append an already-finished span of known duration.

        For stages whose start and end happen on different threads (the
        service's queue wait: admission stamps the clock, a worker observes
        the dequeue) a context manager cannot bracket the work; ``record``
        attaches a closed span of duration ``wall`` under the calling
        thread's currently open span (or as a root).
        """
        now = self.clock()
        span_ = Span(self, name, None, attrs or None)
        span_.start = now - wall
        span_.end = now
        span_.budget_steps = budget_steps
        span_._state = 2
        stack = self._stack()
        if stack:
            stack[-1].children.append(span_)
        else:
            self._add_root(span_)
        return span_

    # -- internals ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add_root(self, span_: Span) -> None:
        with self._lock:
            self._roots.append(span_)

    # -- inspection --------------------------------------------------------

    def roots(self) -> list[Span]:
        """Snapshot of the finished root spans (across all threads)."""
        with self._lock:
            return list(self._roots)

    def open_depth(self) -> int:
        """How many spans the *calling thread* currently has open."""
        return len(self._stack())

    def to_json(self) -> dict:
        """The whole trace as one JSON-safe object."""
        return {
            "version": "repro-trace/1",
            "spans": [root.to_json() for root in self.roots()],
        }

    def structure(self, ignore: tuple[str, ...] = ()) -> tuple:
        """Structures of every root (the differential-corpus currency)."""
        return structure(self.roots(), ignore)


def structure(spans, ignore: tuple[str, ...] = ()) -> tuple:
    """Structure of an iterable of spans (module-level convenience)."""
    return tuple(
        span_.structure(ignore)
        for span_ in spans
        if not span_.name.startswith(ignore)
    )


# ---------------------------------------------------------------------------
# The process-wide active tracer
# ---------------------------------------------------------------------------

#: The installed tracer, or None (the disabled fast path).
_active: Tracer | None = None


def span(name: str, budget=None, **attrs):
    """The instrumentation entry point engines call (see module docstring)."""
    tracer = _active
    if tracer is None:
        return NOOP_SPAN
    return Span(tracer, name, budget, attrs)


def current_tracer() -> Tracer | None:
    """The installed tracer, or None when tracing is disabled."""
    return _active


def tracing_enabled() -> bool:
    return _active is not None


def install(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (a fresh one by default) process-wide."""
    global _active
    if tracer is None:
        tracer = Tracer()
    _active = tracer
    return tracer


def uninstall() -> None:
    """Disable tracing (the installed tracer keeps its collected spans)."""
    global _active
    _active = None


class tracing:
    """Scoped tracing: ``with obs.tracing() as tracer: ...``.

    Installs the given (or a fresh) tracer on entry and restores the
    previously active tracer on exit — nestable, and safe around code that
    is already being traced.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        global _active
        self._previous = _active
        _active = self.tracer
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active
        _active = self._previous
        return False


def _dump_at_exit(destination: str) -> None:  # pragma: no cover - atexit path
    tracer = _active
    if tracer is None:
        return
    text = json.dumps(tracer.to_json(), indent=2)
    if destination in ("1", "true", "stderr"):
        import sys

        print(text, file=sys.stderr)
    else:
        with open(destination, "w") as handle:
            handle.write(text + "\n")


def reload_from_env(value: str | None = None) -> Tracer | None:
    """(Re)install a tracer from ``REPRO_TRACE`` (or an explicit value).

    An empty/unset variable is a no-op (call :func:`uninstall` to disable);
    any other value installs a fresh tracer and, when called at import
    time, registers an at-exit JSON dump to the named file (``1`` /
    ``true`` / ``stderr`` dump to stderr).
    """
    spec = os.environ.get(TRACE_ENV_VAR, "") if value is None else value
    if not spec:
        return None
    return install(Tracer())


_env_spec = os.environ.get(TRACE_ENV_VAR, "")
if _env_spec:  # pragma: no cover - exercised via subprocess tests
    reload_from_env(_env_spec)
    import atexit

    atexit.register(_dump_at_exit, _env_spec)
