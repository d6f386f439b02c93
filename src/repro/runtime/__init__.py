"""repro.runtime — the cross-cutting resource-governance layer.

Production queries must be *boundable* and *cancellable*, and each of their
failures must be *typed*.  This package provides all three,
engine-agnostically:

* :class:`ExecutionBudget` (:mod:`repro.runtime.budget`) — one object
  carrying a wall-clock deadline, a cooperative step/fuel counter, and a
  result-cardinality cap; every engine accepts ``budget=`` and checkpoints
  its hot loops against it;
* the exception taxonomy (:mod:`repro.runtime.errors`) rooted at
  :class:`ReproError`, with one documented CLI exit code per class;
* fault injection (:mod:`repro.runtime.faults`) — deterministically fail
  named kernel boundaries so the failure paths run in CI.

The package imports no engine, so ``repro.runtime`` stays importable from
anywhere in the dependency graph.
"""

from . import faults
from .budget import ExecutionBudget
from .errors import (
    EXIT_CODES,
    BudgetExceededError,
    DeadlineExceededError,
    DepthLimitError,
    EngineFaultError,
    InjectedFaultError,
    InputLimitError,
    QueueFullError,
    ReproError,
    ReproSyntaxError,
    RequestShedError,
    ServiceClosedError,
    ServiceError,
    ShardUnavailableError,
    StaleEpochError,
    StoreCorruptError,
    WalCorruptError,
    exit_code_for,
)

__all__ = [
    "EXIT_CODES",
    "BudgetExceededError",
    "DeadlineExceededError",
    "DepthLimitError",
    "EngineFaultError",
    "ExecutionBudget",
    "InjectedFaultError",
    "InputLimitError",
    "QueueFullError",
    "ReproError",
    "ReproSyntaxError",
    "RequestShedError",
    "ServiceClosedError",
    "ServiceError",
    "ShardUnavailableError",
    "StaleEpochError",
    "StoreCorruptError",
    "WalCorruptError",
    "exit_code_for",
    "faults",
]
