"""Tree walking automata (TWA).

A TWA is a sequential device with finitely many states walking a tree one
edge at a time.  At each step it observes the current node's *local type* —
its label plus four boolean flags (root? leaf? first sibling? last sibling?)
— and nondeterministically picks a transition: a move (stay, up, down to the
first/last child, left/right to an adjacent sibling) and a next state.  The
run starts at the root in the initial state and **accepts by reaching an
accepting state** (anywhere in the tree).  Moves that fall off the tree kill
the run.

Membership is decided by reachability in the configuration graph
(state × node), which is the obvious O(|Q|·|T|) algorithm; the bottom-up
*behavior* algorithm in :mod:`repro.automata.behavior` is the structured
alternative that underlies the paper's regularity theorem (T4) and the two
are cross-validated against each other.

Two run strategies implement the reachability (``strategy=`` on
:meth:`TWA.accepts` / :meth:`TWA.reachable_configs`):

* ``"bitset"`` (default) — a bit-parallel frontier sweep: one bitmask of
  current nodes per state, advanced whole-set at a time by the shared
  :class:`repro.trees.index.TreeIndex` move kernels, with observation
  dispatch precompiled into per-transition node masks;
* ``"deque"`` — the config-at-a-time BFS walk, kept as the readable
  reference and cross-validation oracle.

All walking machinery takes an optional ``scope`` node: the automaton then
runs on the subtree rooted there as if it were a standalone tree (the scope
root observes root flags; moves leaving the subtree die).  This is exactly
what nested TWA subtree tests need (:mod:`repro.automata.nested`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .. import obs
from ..runtime import faults
from ..runtime.budget import ExecutionBudget
from ..trees.index import Scope, TreeIndex, tree_index
from ..trees.tree import Tree

__all__ = [
    "Move",
    "Observation",
    "RUN_STRATEGIES",
    "TWA",
    "TwaBuilder",
    "observation_at",
]

#: Names accepted by the ``strategy=`` argument of the run methods.
RUN_STRATEGIES = ("bitset", "deque")


class Move(Enum):
    STAY = "stay"
    UP = "up"
    DOWN_FIRST = "down_first"
    DOWN_LAST = "down_last"
    LEFT = "left"
    RIGHT = "right"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Move.{self.name}"


@dataclass(frozen=True)
class Observation:
    """The local type a walking automaton sees at a node."""

    label: str
    is_root: bool
    is_leaf: bool
    is_first: bool
    is_last: bool


def observation_at(tree: Tree, node_id: int, scope: int = 0) -> Observation:
    """The observation at ``node_id`` when walking the subtree of ``scope``."""
    at_scope_root = node_id == scope
    return Observation(
        label=tree.labels[node_id],
        is_root=at_scope_root,
        is_leaf=tree.first_child[node_id] < 0,
        is_first=at_scope_root or tree.prev_sibling[node_id] < 0,
        is_last=at_scope_root or tree.next_sibling[node_id] < 0,
    )


def apply_move(tree: Tree, node_id: int, move: Move, scope: int = 0) -> int | None:
    """The node reached by ``move``, or None if the move falls off the
    (scoped) tree."""
    if move is Move.STAY:
        return node_id
    if move is Move.UP:
        if node_id == scope:
            return None
        return tree.parent[node_id]
    if move is Move.DOWN_FIRST:
        target = tree.first_child[node_id]
        return target if target >= 0 else None
    if move is Move.DOWN_LAST:
        target = tree.last_child[node_id]
        return target if target >= 0 else None
    if move is Move.LEFT:
        if node_id == scope:
            return None
        target = tree.prev_sibling[node_id]
        return target if target >= 0 else None
    if move is Move.RIGHT:
        if node_id == scope:
            return None
        target = tree.next_sibling[node_id]
        return target if target >= 0 else None
    raise ValueError(f"unknown move {move!r}")  # pragma: no cover


def observation_masks(index: TreeIndex, sc: Scope):
    """A function ``obs -> bitmask`` of in-scope nodes with that local type.

    Non-root observations are four mask intersections (label, leaf, first,
    last); the scope root is matched separately against its one concrete
    observation, since its root/first/last flags are scope-dependent.
    """
    root = sc.root
    # observation_at(tree, root, root), read off the index: the scope root
    # is root, first and last; it is a leaf iff its interval is [root, root + 1).
    root_obs = Observation(
        label=index.labels[root],
        is_root=True,
        is_leaf=index.after[root] == root + 1,
        is_first=True,
        is_last=True,
    )
    nonroot = sc.mask & ~sc.root_bit
    full = index.full

    def mask_of(obs: Observation) -> int:
        if obs.is_root:
            return sc.root_bit if obs == root_obs else 0
        m = index.label_masks.get(obs.label, 0) & nonroot
        m &= index.leaf_mask if obs.is_leaf else full ^ index.leaf_mask
        m &= index.first_mask if obs.is_first else full ^ index.first_mask
        m &= index.last_mask if obs.is_last else full ^ index.last_mask
        return m

    return mask_of


def move_kernels(index: TreeIndex) -> dict[Move, object]:
    """The ``(mask, scope) -> mask`` kernel for each walking move."""
    return {
        Move.STAY: index.self_,
        Move.UP: index.parent,
        Move.DOWN_FIRST: index.down_first,
        Move.DOWN_LAST: index.down_last,
        Move.LEFT: index.left,
        Move.RIGHT: index.right,
    }


def sweep_configs(
    num_states: int,
    initial: int,
    accepting: frozenset[int],
    program: list[list[tuple[int, object, int]]],
    sc: Scope,
    accept_only: bool,
    budget: ExecutionBudget | None = None,
):
    """Bit-parallel configuration-graph reachability.

    ``program[state]`` lists ``(source_mask, move_kernel, next_state)``
    triples; the sweep keeps one frontier mask per state and advances every
    live configuration of a state in a single kernel application.  With
    ``accept_only`` it returns a bool as soon as an accepting state's mask
    becomes nonempty; otherwise it returns the per-state reached masks.
    """
    faults.check("automata.bitset")
    with obs.span("twa.frontier.sweep", budget=budget, strategy="bitset") as sweep:
        reached = [0] * num_states
        reached[initial] = sc.root_bit
        frontier = list(reached)
        rounds = 0
        while True:
            if budget is not None:
                # One checkpoint per BFS round of the configuration graph.
                budget.tick()
            rounds += 1
            sweep.set(rounds=rounds)
            new = [0] * num_states
            for state, live in enumerate(frontier):
                if not live:
                    continue
                for source_mask, kernel, next_state in program[state]:
                    src = live & source_mask
                    if src:
                        new[next_state] |= kernel(src, sc)
            if accept_only:
                for state in accepting:
                    if new[state]:
                        return True
            advanced = False
            for state in range(num_states):
                fresh = new[state] & ~reached[state]
                frontier[state] = fresh
                if fresh:
                    reached[state] |= fresh
                    advanced = True
            if not advanced:
                return False if accept_only else reached


def _check_strategy(strategy: str) -> None:
    if strategy not in RUN_STRATEGIES:
        raise ValueError(
            f"unknown run strategy {strategy!r}; expected one of {RUN_STRATEGIES}"
        )


@dataclass(frozen=True)
class TWA:
    """A (nondeterministic) tree walking automaton.

    ``transitions`` maps ``(state, observation)`` to a frozenset of
    ``(move, next_state)`` pairs.  Use :class:`TwaBuilder` to write automata
    with wildcard observations.
    """

    num_states: int
    initial: int
    accepting: frozenset[int]
    transitions: dict[tuple[int, Observation], frozenset[tuple[Move, int]]]

    def options(self, state: int, obs: Observation) -> frozenset[tuple[Move, int]]:
        return self.transitions.get((state, obs), frozenset())

    @property
    def is_deterministic(self) -> bool:
        return all(len(choices) <= 1 for choices in self.transitions.values())

    # -- membership via the configuration graph --------------------------------

    def _program(
        self, index: TreeIndex, sc: Scope
    ) -> list[list[tuple[int, object, int]]]:
        """Compile the transition table for one scope: per state, the merged
        ``(source_mask, move_kernel, next_state)`` triples."""
        mask_of = observation_masks(index, sc)
        kernels = move_kernels(index)
        merged: list[dict[tuple[Move, int], int]] = [
            {} for _ in range(self.num_states)
        ]
        for (state, obs), choices in self.transitions.items():
            m = mask_of(obs)
            if not m:
                continue
            bucket = merged[state]
            for choice in choices:
                bucket[choice] = bucket.get(choice, 0) | m
        return [
            [
                (source_mask, kernels[move], next_state)
                for (move, next_state), source_mask in bucket.items()
            ]
            for bucket in merged
        ]

    def accepts(
        self,
        tree: Tree,
        scope: int = 0,
        strategy: str = "bitset",
        budget: ExecutionBudget | None = None,
    ) -> bool:
        """Does some run (started at the scope root) reach an accepting state?"""
        _check_strategy(strategy)
        with obs.span("twa.accepts", budget=budget, strategy=strategy):
            if self.initial in self.accepting:
                return True
            if strategy == "deque":
                return self._accepts_deque(tree, scope, budget)
            index = tree_index(tree)
            sc = index.scope(scope)
            return sweep_configs(
                self.num_states,
                self.initial,
                self.accepting,
                self._program(index, sc),
                sc,
                accept_only=True,
                budget=budget,
            )

    def reachable_configs(
        self,
        tree: Tree,
        scope: int = 0,
        strategy: str = "bitset",
        budget: ExecutionBudget | None = None,
    ) -> set[tuple[int, int]]:
        """All reachable (state, node) configurations (for inspection)."""
        _check_strategy(strategy)
        with obs.span("twa.configs", budget=budget, strategy=strategy):
            return self._reachable(tree, scope, strategy, budget)

    def _reachable(
        self,
        tree: Tree,
        scope: int,
        strategy: str,
        budget: ExecutionBudget | None,
    ) -> set[tuple[int, int]]:
        if strategy == "deque":
            return self._reachable_deque(tree, scope, budget)
        index = tree_index(tree)
        sc = index.scope(scope)
        reached = sweep_configs(
            self.num_states,
            self.initial,
            self.accepting,
            self._program(index, sc),
            sc,
            accept_only=False,
            budget=budget,
        )
        configs: set[tuple[int, int]] = set()
        for state, mask in enumerate(reached):
            while mask:
                low = mask & -mask
                configs.add((state, low.bit_length() - 1))
                mask ^= low
        return configs

    def _accepts_deque(
        self,
        tree: Tree,
        scope: int = 0,
        budget: ExecutionBudget | None = None,
    ) -> bool:
        with obs.span("twa.frontier.sweep", budget=budget, strategy="deque"):
            start = (self.initial, scope)
            seen = {start}
            queue = deque([start])
            while queue:
                if budget is not None:
                    budget.tick()
                state, node = queue.popleft()
                observed = observation_at(tree, node, scope)
                for move, next_state in self.options(state, observed):
                    target = apply_move(tree, node, move, scope)
                    if target is None:
                        continue
                    if next_state in self.accepting:
                        return True
                    config = (next_state, target)
                    if config not in seen:
                        seen.add(config)
                        queue.append(config)
            return False

    def _reachable_deque(
        self,
        tree: Tree,
        scope: int = 0,
        budget: ExecutionBudget | None = None,
    ) -> set[tuple[int, int]]:
        with obs.span("twa.frontier.sweep", budget=budget, strategy="deque"):
            start = (self.initial, scope)
            seen = {start}
            queue = deque([start])
            while queue:
                if budget is not None:
                    budget.tick()
                state, node = queue.popleft()
                observed = observation_at(tree, node, scope)
                for move, next_state in self.options(state, observed):
                    target = apply_move(tree, node, move, scope)
                    if target is None:
                        continue
                    config = (next_state, target)
                    if config not in seen:
                        seen.add(config)
                        queue.append(config)
            return seen


class TwaBuilder:
    """Convenience builder: add transitions with wildcard observations.

    >>> b = TwaBuilder(alphabet=("a", "b"), num_states=2)
    >>> b.add(0, label="a", move=Move.DOWN_FIRST, target=1)   # any flags
    >>> b.add(1, is_leaf=True, move=Move.STAY, target=1)      # any label
    >>> automaton = b.build(initial=0, accepting={1})
    """

    def __init__(self, alphabet: Iterable[str], num_states: int):
        self.alphabet = tuple(alphabet)
        self.num_states = num_states
        self._table: dict[tuple[int, Observation], set[tuple[Move, int]]] = {}

    def observations(
        self,
        label: str | None = None,
        is_root: bool | None = None,
        is_leaf: bool | None = None,
        is_first: bool | None = None,
        is_last: bool | None = None,
    ) -> list[Observation]:
        """All *realizable* observations matching the given constraints.

        (The root is always both a first and a last sibling.)
        """
        result = []
        labels = self.alphabet if label is None else (label,)
        booleans = (False, True)
        for lbl in labels:
            for root in booleans if is_root is None else (is_root,):
                for leaf in booleans if is_leaf is None else (is_leaf,):
                    for first in booleans if is_first is None else (is_first,):
                        for last in booleans if is_last is None else (is_last,):
                            if root and not (first and last):
                                continue
                            result.append(Observation(lbl, root, leaf, first, last))
        return result

    def add(
        self,
        state: int,
        move: Move,
        target: int,
        label: str | None = None,
        is_root: bool | None = None,
        is_leaf: bool | None = None,
        is_first: bool | None = None,
        is_last: bool | None = None,
    ) -> "TwaBuilder":
        """Add ``(move, target)`` for every observation matching the wildcards."""
        for obs in self.observations(label, is_root, is_leaf, is_first, is_last):
            self._table.setdefault((state, obs), set()).add((move, target))
        return self

    def build(self, initial: int, accepting: Iterable[int]) -> TWA:
        transitions = {
            key: frozenset(choices) for key, choices in self._table.items()
        }
        return TWA(self.num_states, initial, frozenset(accepting), transitions)
