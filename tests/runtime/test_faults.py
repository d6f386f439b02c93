"""Fault-injection machinery and its wiring into the engine kernels."""

import random

import pytest

from repro.logic import ModelChecker, parse_formula
from repro.runtime import InjectedFaultError, faults
from repro.trees import chain, random_tree
from repro.xpath import Evaluator, parse_node, parse_path


@pytest.fixture(autouse=True)
def clean_slate():
    faults.disarm()
    yield
    faults.disarm()


class TestFaultRegistry:
    def test_armed_site_raises_with_site_attribute(self):
        faults.arm("some.site")
        with pytest.raises(InjectedFaultError) as info:
            faults.check("some.site")
        assert info.value.site == "some.site"

    def test_unarmed_site_is_silent(self):
        faults.arm("some.site")
        faults.check("another.site")  # no raise

    def test_counted_arm_fires_exactly_n_times(self):
        faults.arm("some.site", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                faults.check("some.site")
        faults.check("some.site")  # exhausted
        assert faults.armed_sites() == {}

    def test_counted_arm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            faults.arm("some.site", times=0)

    def test_disarm_one_and_all(self):
        faults.arm("a")
        faults.arm("b")
        faults.disarm("a")
        assert set(faults.armed_sites()) == {"b"}
        faults.disarm()
        assert faults.armed_sites() == {}

    def test_inject_scope(self):
        with faults.inject("scoped.site"):
            with pytest.raises(InjectedFaultError):
                faults.check("scoped.site")
        faults.check("scoped.site")  # disarmed on exit

    def test_reload_from_env_spec(self):
        faults.reload_from_env("xpath.bitset, logic.bitset.tc:3")
        assert faults.armed_sites() == {"xpath.bitset": None, "logic.bitset.tc": 3}

    def test_reload_from_env_empty_is_noop(self):
        faults.reload_from_env("")
        assert faults.armed_sites() == {}

    def test_reload_from_env_rejects_unknown_sites(self):
        # A misspelt or removed site must fail the run, not arm nothing;
        # a bad entry anywhere in the spec arms none of it.
        with pytest.raises(ValueError, match="unknown fault site 'xpath.sets'"):
            faults.reload_from_env("xpath.bitset, xpath.sets:2")
        assert faults.armed_sites() == {}

    def test_sites_is_exactly_the_checked_sites(self):
        import re
        from pathlib import Path

        package = Path(faults.__file__).resolve().parents[1]
        checked = {
            match
            for path in package.rglob("*.py")
            for match in re.findall(r'faults\.check\("([^"]+)"\)', path.read_text())
        }
        assert sorted(faults.SITES) == sorted(checked)
        for site in faults.SITES:
            assert f"``{site}``" in faults.__doc__


class TestScoped:
    """``faults.scoped`` snapshots the registry and restores it exactly."""

    def test_arms_inside_and_restores_outside(self):
        with faults.scoped("a.site"):
            with pytest.raises(InjectedFaultError):
                faults.check("a.site")
        faults.check("a.site")  # gone
        assert faults.armed_sites() == {}

    def test_counted_arm_via_tuple(self):
        with faults.scoped(("a.site", 1)):
            with pytest.raises(InjectedFaultError):
                faults.check("a.site")
            faults.check("a.site")  # count exhausted inside the scope

    def test_restores_preexisting_arms(self):
        """The leakage bug the scope exists to fix: a test arming inside a
        scope must not clobber (or leave behind) arms from outside it."""
        faults.arm("outer.site", times=3)
        with faults.scoped("inner.site"):
            faults.arm("extra.site")  # even manual arms inside are undone
            faults.disarm("outer.site")  # and manual disarms are undone too
        assert faults.armed_sites() == {"outer.site": 3}

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with faults.scoped("a.site"):
                raise RuntimeError("boom")
        assert faults.armed_sites() == {}

    def test_multiple_sites_in_one_scope(self):
        with faults.scoped("a.site", ("b.site", 2)):
            assert faults.armed_sites() == {"a.site": None, "b.site": 2}
        assert faults.armed_sites() == {}


class TestThreadSafety:
    def test_concurrent_arm_check_disarm_is_racefree(self):
        """Hammer the registry from several threads; counted arms must fire
        exactly ``times`` faults in total, never more (the old unlocked
        decrement could double-fire or lose counts)."""
        import threading

        fired = []
        lock = threading.Lock()
        faults.arm("hot.site", times=200)

        def worker():
            local = 0
            for _ in range(100):
                try:
                    faults.check("hot.site")
                except InjectedFaultError:
                    local += 1
            with lock:
                fired.append(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(fired) == 200
        assert faults.armed_sites() == {}


class TestEngineWiring:
    """Each documented site actually fires inside its engine."""

    def test_xpath_bitset_entry(self):
        tree = chain(8, labels=("a", "b"))
        ev = Evaluator(tree, backend="bitset")
        with faults.inject("xpath.bitset"):
            with pytest.raises(InjectedFaultError):
                ev.nodes(parse_node("a"))
        assert ev.nodes(parse_node("a"))  # healthy again once disarmed

    def test_xpath_bitset_star_sweep(self):
        tree = chain(8, labels=("a", "b"))
        ev = Evaluator(tree, backend="bitset")
        # A starred union is not a precomputed axis closure, so evaluating it
        # actually enters the frontier sweep where the site is checked.
        with faults.inject("xpath.bitset.star"):
            with pytest.raises(InjectedFaultError):
                ev.image(parse_path("(child[a] | child)*"), {0})

    def test_logic_bitset_entry(self):
        tree = random_tree(16, rng=random.Random(0))
        checker = ModelChecker(tree, backend="bitset")
        with faults.inject("logic.bitset"):
            with pytest.raises(InjectedFaultError):
                checker.holds(parse_formula("exists x. a(x)"))

    def test_logic_bitset_tc_sweep(self):
        tree = chain(8, labels=("a", "b"))
        checker = ModelChecker(tree, backend="bitset")
        with faults.inject("logic.bitset.tc"):
            with pytest.raises(InjectedFaultError):
                checker.holds(
                    parse_formula("exists x. exists y. tc[u,v](child(u,v))(x,y)")
                )

    def test_automata_bitset_sweep(self):
        from repro.translations import compile_exists_path

        automaton = compile_exists_path(parse_path("descendant[b]"), ("a", "b"))
        tree = chain(8, labels=("a", "b"))
        with faults.inject("automata.bitset"):
            with pytest.raises(InjectedFaultError):
                automaton.accepts(tree, strategy="bitset")

    def test_sets_oracle_is_unaffected(self):
        """Faults target the fast engines; the oracles keep working."""
        tree = chain(8, labels=("a", "b"))
        with faults.inject("xpath.bitset"):
            result = Evaluator(tree, backend="sets").nodes(parse_node("a"))
        assert result
