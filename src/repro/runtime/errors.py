"""The structured exception taxonomy of the runtime-governance layer.

Every failure mode the system can surface — malformed input, resource
exhaustion, and engine faults — is rooted at :class:`ReproError`, so callers
can catch the whole family with one clause while still distinguishing the
classes that need different handling (retry, report).  The tree::

    ReproError
    ├── ReproSyntaxError (also ValueError)     malformed query/formula/XML text
    │   ├── repro.xpath.XPathSyntaxError
    │   ├── repro.logic.FormulaSyntaxError
    │   └── repro.trees.XmlSyntaxError
    ├── DepthLimitError (also ValueError)      parser nesting-depth cap
    ├── InputLimitError (also ValueError)      XML document size/depth/text caps
    ├── BudgetExceededError                    step-fuel / cardinality cap
    │   └── DeadlineExceededError              wall-clock deadline
    │       └── RequestShedError               shed before execution (service)
    ├── EngineFaultError                       an engine failed mid-run
    │   ├── InjectedFaultError                 ... because a fault was injected
    │   └── StaleEpochError                    shard served an outdated tree epoch
    ├── TreeShareError                         index sections do not decode
    ├── StoreCorruptError                      corrupt on-disk store file (RSTR)
    ├── WalCorruptError                        write-ahead log / snapshot corruption
    └── ServiceError                           the serving layer itself
        ├── QueueFullError                     bounded queue rejected a request
        ├── ShardCrashedError                  a shard process died mid-request
        ├── ShardUnavailableError              restart budget exhausted for a shard
        └── ServiceClosedError                 submit after shutdown began

The syntax/limit classes keep ``ValueError`` in their MRO so pre-existing
``except ValueError`` call sites continue to work; budget trips deliberately
do **not** — running out of fuel is an operational condition, not a bad
value, and must not be swallowed by broad input-validation handlers.

:data:`EXIT_CODES` is the CLI contract: one documented exit code per error
class (see :mod:`repro.cli`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ReproSyntaxError",
    "DepthLimitError",
    "InputLimitError",
    "BudgetExceededError",
    "DeadlineExceededError",
    "RequestShedError",
    "EngineFaultError",
    "InjectedFaultError",
    "StaleEpochError",
    "TreeShareError",
    "StoreCorruptError",
    "WalCorruptError",
    "ServiceError",
    "QueueFullError",
    "ShardCrashedError",
    "ShardUnavailableError",
    "ServiceClosedError",
    "EXIT_CODES",
    "exit_code_for",
]


class ReproError(Exception):
    """Root of every structured error raised by this package."""


class ReproSyntaxError(ReproError, ValueError):
    """Malformed input text (query, formula, or XML).

    Subclasses carry a ``position`` attribute (character offset into the
    source text) and render it into the message.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DepthLimitError(ReproError, ValueError):
    """Input nesting exceeds a parser's explicit depth limit.

    Raised *instead of* an uncontrolled ``RecursionError``: the parsers
    count grammar nesting and stop with a clean message (and position) long
    before the interpreter stack would overflow.
    """

    def __init__(self, message: str, position: int, limit: int):
        super().__init__(f"{message} (at offset {position}; limit {limit})")
        self.position = position
        self.limit = limit


class InputLimitError(ReproError, ValueError):
    """An XML document exceeds a configured read limit.

    Raised by :class:`repro.trees.xml_io.XmlReadOptions` caps
    (``max_depth`` / ``max_nodes`` / ``max_text_length``).
    """

    def __init__(self, message: str, position: int, limit: int):
        super().__init__(f"{message} (at offset {position}; limit {limit})")
        self.position = position
        self.limit = limit


class BudgetExceededError(ReproError):
    """An :class:`~repro.runtime.budget.ExecutionBudget` cap was hit.

    Covers the step/fuel counter and the node-set cardinality cap; the
    wall-clock deadline has its own subclass, with its own exit code.
    """


class DeadlineExceededError(BudgetExceededError):
    """The budget's wall-clock deadline passed mid-evaluation."""


class RequestShedError(DeadlineExceededError):
    """A queued request was shed before execution started.

    Raised (or attached to a structured result) by the query service when a
    request's deadline passes while it is still waiting in the queue, or
    when the service shuts down without draining.  Subclasses
    :class:`DeadlineExceededError` because the caller-visible meaning is the
    same — the deadline is unmeetable — but the distinct class records that
    *no* engine work was wasted on it.
    """


class EngineFaultError(ReproError):
    """An evaluation engine failed at a kernel boundary."""


class InjectedFaultError(EngineFaultError):
    """A deterministically injected fault (see :mod:`repro.runtime.faults`).

    Only ever raised when a fault site has been armed explicitly — via the
    API, the ``REPRO_FAULTS`` environment variable, or the CLI's
    ``--inject-fault`` — so production runs never see this class.
    """

    def __init__(self, site: str):
        super().__init__(f"injected fault at {site!r}")
        self.site = site


class StaleEpochError(EngineFaultError):
    """A read was executed against an outdated epoch of a live tree.

    Raised when a read carries a positive ``min_epoch`` floor (a client's,
    or the sharded tier's dispatch-time stamp) and, even after refreshing
    its copy from the store, the serving registry holds nothing that new —
    the floor runs ahead of every published generation, e.g. a read that
    races the mutation creating its epoch.  Subclasses
    :class:`EngineFaultError` because the condition is transient and
    retryable: once the epoch is published, the same read succeeds.
    """

    def __init__(self, tree: str, local_epoch: int, min_epoch: int):
        super().__init__(
            f"tree {tree!r} is at epoch {local_epoch}, "
            f"request requires >= {min_epoch}"
        )
        self.tree = tree
        self.local_epoch = local_epoch
        self.min_epoch = min_epoch


class TreeShareError(ReproError):
    """Serialized :class:`~repro.trees.index.TreeIndex` sections failed to
    decode.

    Raised by the section codec (:mod:`repro.trees.share`) when a section
    is missing, has the wrong length, or does not encode a valid tree.  The store
    wraps decode failures in :class:`StoreCorruptError`; either way a
    damaged index fails loudly instead of reconstructing wrong masks and
    silently returning wrong query answers.
    """


class StoreCorruptError(ReproError):
    """An on-disk store file (RSTR v2) failed validation.

    Raised by :mod:`repro.trees.store` when a stored tree's magic, version,
    declared size (a truncated tail), table checksum, or any per-section
    CRC does not hold.  Every section CRC is verified *eagerly* at load
    time, before any mask is reconstructed, so a flipped bit on disk fails
    loudly here — it can never surface as a silently wrong query answer.
    """


class WalCorruptError(ReproError):
    """A write-ahead log record or snapshot failed validation.

    Raised by :mod:`repro.trees.wal` when a framed record's length/CRC
    header does not match its payload *before* the torn tail (a torn tail —
    an interrupted final append — is expected after a crash and is silently
    truncated), or when a snapshot's checksum or a record's post-state
    digest disagrees with the replayed tree.  Corruption in the durable
    history must fail loudly rather than recover a silently wrong registry.
    """


class ServiceError(ReproError):
    """The serving layer itself (queue, worker pool) refused a request."""


class QueueFullError(ServiceError):
    """The bounded request queue is at capacity (backpressure signal).

    Only raised on *non-blocking* submission; blocking submitters wait for
    space instead.  Callers should slow down or shed load upstream.
    """


class ShardCrashedError(ServiceError):
    """A shard process died while requests routed to it were outstanding.

    Every such request resolves with a structured error carrying this
    class — the sharded service's variant of the no-lost-requests
    invariant — and subsequent requests routed to the dead shard fail
    fast instead of queueing forever.
    """


class ShardUnavailableError(ServiceError):
    """A shard exhausted its restart budget and was taken out of service.

    The supervised sharded service respawns crashed shards under a rolling
    restart budget; once the budget is spent, requests routed to the failed
    shard resolve with this class instead of queueing or retrying forever.
    Unlike :class:`ShardCrashedError` (a transient mid-request casualty,
    retryable once the shard respawns), this is a *terminal* degradation
    signal for the affected trees: operator action (or a service restart,
    possibly via ``repro recover``) is required.
    """


class ServiceClosedError(ServiceError):
    """A request was submitted to a service that has begun shutdown."""


#: The CLI exit-code contract, one code per error class.  2 doubles as
#: argparse's own usage-error code; 1 stays reserved for semantic "no"
#: results (NOT equivalent / UNSATISFIABLE / FAILS).
EXIT_CODES = {
    "syntax": 2,
    "io": 3,
    "deadline": 4,
    "budget": 5,
    "depth": 6,
    "input_limit": 7,
    "engine": 8,
    "overload": 9,
    "unavailable": 10,
}


def exit_code_for(exc: BaseException) -> int:
    """The documented CLI exit code for an exception (2 for unknown errors)."""
    if isinstance(exc, ShardUnavailableError):
        return EXIT_CODES["unavailable"]
    if isinstance(exc, DeadlineExceededError):
        return EXIT_CODES["deadline"]
    if isinstance(exc, BudgetExceededError):
        return EXIT_CODES["budget"]
    if isinstance(exc, DepthLimitError):
        return EXIT_CODES["depth"]
    if isinstance(exc, InputLimitError):
        return EXIT_CODES["input_limit"]
    if isinstance(exc, EngineFaultError):
        return EXIT_CODES["engine"]
    if isinstance(exc, TreeShareError):
        return EXIT_CODES["io"]
    if isinstance(exc, StoreCorruptError):
        return EXIT_CODES["io"]
    if isinstance(exc, WalCorruptError):
        return EXIT_CODES["io"]
    if isinstance(exc, ServiceError):
        return EXIT_CODES["overload"]
    if isinstance(exc, OSError):
        return EXIT_CODES["io"]
    return EXIT_CODES["syntax"]
