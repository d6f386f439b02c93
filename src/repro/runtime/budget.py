"""Cooperative execution budgets: deadlines, step fuel, cardinality caps.

Every engine in the system — the XPath evaluators, the FO(MTC) model
checkers, the (nested) TWA runners, and the decision procedures — has
worst cases ranging from polynomial-with-huge-constants to non-elementary.
An :class:`ExecutionBudget` makes any such call boundable and cancellable:
the caller constructs one budget, passes it to the engine, and the engine's
hot loops call :meth:`ExecutionBudget.tick` at **checkpoints** — once per
fixpoint round, BFS level, sweep source, or subformula, never per element —
so governance overhead stays a fraction of a percent while cancellation
latency stays one loop iteration.

Three independent caps, each optional:

``timeout``
    Wall-clock seconds from construction.  Checked against a monotonic
    clock on every tick; tripping raises
    :class:`~repro.runtime.errors.DeadlineExceededError`.
``max_steps``
    Cooperative step fuel.  Each checkpoint consumes one step (weighted
    ticks are possible); tripping raises
    :class:`~repro.runtime.errors.BudgetExceededError`.
``max_nodes``
    Result cardinality cap, enforced by the engines on materialized node
    sets / tables via :meth:`ExecutionBudget.check_size`.

A budget is plain mutable state owned by one logical evaluation; it is not
thread-safe and not reusable across unrelated calls (construct a fresh one).
``budget=None`` everywhere means "ungoverned" and costs one ``is None``
test per checkpoint.
"""

from __future__ import annotations

import time

from .errors import BudgetExceededError, DeadlineExceededError

__all__ = ["ExecutionBudget"]


class ExecutionBudget:
    """One evaluation's resource envelope (see module docstring).

    >>> budget = ExecutionBudget(timeout=0.05, max_steps=100_000)
    >>> Evaluator(tree, backend="bitset", budget=budget).nodes(expr)
    """

    __slots__ = ("deadline", "max_steps", "max_nodes", "steps", "started", "_clock")

    def __init__(
        self,
        timeout: float | None = None,
        max_steps: int | None = None,
        max_nodes: int | None = None,
        *,
        clock=time.monotonic,
    ):
        if timeout is not None and timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {timeout!r}")
        if max_steps is not None and max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps!r}")
        if max_nodes is not None and max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {max_nodes!r}")
        self._clock = clock
        self.started = clock()
        self.deadline = None if timeout is None else self.started + timeout
        self.max_steps = max_steps
        self.max_nodes = max_nodes
        self.steps = 0

    @classmethod
    def from_deadline(
        cls,
        deadline: float | None,
        max_steps: int | None = None,
        max_nodes: int | None = None,
        *,
        clock=time.monotonic,
    ) -> "ExecutionBudget":
        """A budget bounded by an *absolute* deadline on ``clock``'s scale.

        This is how the query service derives per-request budgets: the
        deadline is fixed when the request is admitted, and however long the
        request then waits in the queue, the engine-visible budget keeps
        counting down against the same instant.  A deadline already in the
        past is allowed — the first checkpoint trips it, and callers that
        want to shed instead check :attr:`remaining_time` first.
        """
        budget = cls(max_steps=max_steps, max_nodes=max_nodes, clock=clock)
        budget.deadline = deadline
        return budget

    # -- checkpoints -------------------------------------------------------

    def tick(self, weight: int = 1) -> None:
        """Consume ``weight`` steps and enforce the deadline.

        The cooperative checkpoint: engines call this once per loop *round*
        (fixpoint level, sweep source, subformula), so the deadline is
        observed within one round of passing.
        """
        self.steps += weight
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceededError(
                f"step budget exhausted ({self.steps} > {self.max_steps})"
            )
        if self.deadline is not None and self._clock() >= self.deadline:
            raise DeadlineExceededError(
                f"deadline exceeded after {self.elapsed:.3f}s "
                f"({self.steps} steps)"
            )

    def check_size(self, count: int, what: str = "node set") -> None:
        """Enforce the cardinality cap on a materialized result."""
        if self.max_nodes is not None and count > self.max_nodes:
            raise BudgetExceededError(
                f"{what} cardinality {count} exceeds the cap {self.max_nodes}"
            )

    # -- inspection / lifecycle --------------------------------------------

    @property
    def elapsed(self) -> float:
        """Seconds since the budget was constructed."""
        return self._clock() - self.started

    @property
    def remaining_time(self) -> float | None:
        """Seconds until the deadline (None when no deadline is set)."""
        if self.deadline is None:
            return None
        return self.deadline - self._clock()

    @property
    def remaining_steps(self) -> int | None:
        """Steps of fuel left (None when no step cap is set)."""
        if self.max_steps is None:
            return None
        return max(0, self.max_steps - self.steps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"steps={self.steps}"]
        if self.max_steps is not None:
            parts.append(f"max_steps={self.max_steps}")
        if self.deadline is not None:
            parts.append(f"remaining_time={self.remaining_time:.3f}s")
        if self.max_nodes is not None:
            parts.append(f"max_nodes={self.max_nodes}")
        return f"ExecutionBudget({', '.join(parts)})"
