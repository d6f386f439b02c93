"""Shared fixtures: corpora, samplers, and canonical example trees.

Timeout policy: CI runs the suite under pytest-timeout (``--timeout=120``,
configured in ``.github/workflows/ci.yml`` only — the plugin is not a local
requirement) as a watchdog against runaway tests.  Hypothesis-side
per-example deadlines stay **disabled** (``deadline=None`` below): property
tests here routinely build corpora and automata whose first-example cost is
dominated by session-scoped cache warming, and Hypothesis deadlines turn
that warm-up jitter into flaky ``DeadlineExceeded`` failures.  The ``repro``
profile registered below makes that the suite-wide default (individual
tests repeat ``deadline=None`` in their ``@settings`` for locality).
Wall-clock governance of the *engines themselves* is exercised explicitly
by the ``tests/runtime`` suite via ExecutionBudget instead.
"""

import gc
import random

import pytest
from hypothesis import settings as hypothesis_settings

hypothesis_settings.register_profile("repro", deadline=None)
hypothesis_settings.load_profile("repro")

from repro import obs
from repro.decision.corpora import standard_corpus
from repro.runtime import faults
from repro.trees import Tree, all_trees, chain, parse_xml
from repro.xpath.random_exprs import ExprSampler


@pytest.fixture(autouse=True)
def _metrics_registry_isolation():
    """Snapshot/restore the process metrics registry around every test.

    :data:`repro.obs.REGISTRY` is process-global mutable state, exactly like
    the fault registry: a test that runs a service (or fires a fault
    site) would otherwise leak counter increments into every later
    test's reconciliation assertions.  The restore is in place — instruments
    captured by module-level holders keep their object identity.
    """
    snapshot = obs.REGISTRY.snapshot()
    yield
    obs.REGISTRY.restore(snapshot)


@pytest.fixture(autouse=True)
def _tracer_isolation():
    """Restore the process-wide tracer installation around every test.

    Tests should prefer the scoped ``with obs.tracing(...)`` form, but a
    test that calls :func:`repro.obs.install` (or crashes inside a tracing
    block) must not leave every later test silently tracing.
    """
    before = obs.current_tracer()
    yield
    if obs.current_tracer() is not before:
        obs.install(before) if before is not None else obs.uninstall()


@pytest.fixture(autouse=True)
def _fault_registry_isolation():
    """Snapshot/restore the global fault registry around every test.

    ``repro.runtime.faults`` parses ``REPRO_FAULTS`` at import time and its
    armed sites are process-global mutable state, so a test that arms a
    site (or consumes an environment-armed counted site) would otherwise
    leak into every later test.  Restoring the entry snapshot keeps tests
    isolated from each other while letting deliberately environment-armed
    runs (the CI chaos job) keep their arming across the session.
    """
    snapshot = faults.armed_sites()
    yield
    faults.disarm()
    for site, times in snapshot.items():
        faults.arm(site, times)


@pytest.fixture()
def gc_disabled():
    """The cyclic garbage collector off for one test (refcounting only),
    for tests asserting that objects die as soon as their last holder
    lets go."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="session")
def corpus():
    """The standard test corpus (exhaustive to size 4 over {a, b})."""
    return standard_corpus()

@pytest.fixture(scope="session")
def small_trees():
    """Every tree with at most 4 nodes over {a, b} (102 trees)."""
    return list(all_trees(4))


@pytest.fixture(scope="session")
def exhaustive5():
    """Every tree with at most 5 nodes over {a, b} (550 trees)."""
    return list(all_trees(5))


@pytest.fixture()
def rng():
    return random.Random(2008)


@pytest.fixture()
def sampler(rng):
    return ExprSampler(alphabet=("a", "b"), rng=rng)


@pytest.fixture(scope="session")
def talk_tree():
    """The running example document of the talk literature."""
    return parse_xml(
        "<talk><speaker/><title><i/></title><location><i/><b/></location></talk>"
    )


@pytest.fixture(scope="session")
def mixed_tree():
    """A hand-built tree exercising every axis direction.

    Shape: a(b, c(a, b, a), b(a))  — ids 0..7 in document order.
    """
    return Tree.build(("a", ["b", ("c", ["a", "b", "a"]), ("b", ["a"])]))


@pytest.fixture(scope="session")
def deep_chain():
    return chain(12, labels=("a", "b"))
