"""The fix-point inner loop of the best-effort parser.

This module is the parser's hot core, kept apart from
:mod:`repro.parser.parser` as plain strict-typed Python: no dynamic
attributes, slotted hot classes, and no module-level mutable state.

Everything here operates on *interned* instances: each parse owns an
:class:`~repro.grammar.instance.InternTable` assigning dense ids
(``Instance.iid``) in registration order, and the bookkeeping that used to
key on the global ``uid`` serial and object sets now runs on id-keyed
arrays and bitmasks:

* preference enforcement tests coverage on each instance's own
  ``coverage_mask`` int (token *t* is bit *t*), one candidate list per
  loser still alive;
* ancestry tests use :meth:`Instance.descendant_iid_mask` -- one
  arbitrary-precision int per subtree, built with ``|=`` instead of a
  hash insert per node, tested with a shift-and-mask instead of a set
  lookup;
* rollback's reverse edges (child -> the instances built from it) are a
  per-iid table on :class:`ParseCore`, filled at registration from each
  instance's children.  Instances link downwards only, so once the core
  is dropped a finished parse holds no reference cycle and reference
  counting frees it; nothing here builds a self-referencing closure
  either.

A chain symbol (seeds ``X -> Y``, steps ``X -> X Y``, a criterion-free
self-``subsumes`` rule) is assembled linearly (:func:`drop_doomed_chains`):
each round's chains that the rule would kill at the end of the symbol
are dropped before they are registered or counted, so no chain starts at
a non-source row or branches onto a row a sibling can still reach.

Hot counters accumulate in :class:`CoreCounters` and are folded into
``ParseStats`` once per parse by the orchestrating
:class:`~repro.parser.parser.BestEffortParser`, which also schedules
symbols, enforces each symbol's preferences once its fix-point ends, and
runs maximization.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Iterator

from repro.grammar.instance import Instance, InternTable
from repro.grammar.preference import Preference, subsumes
from repro.grammar.production import Production
from repro.parser.spatial_index import MIN_INDEXED_POOL, GeometryTable, passes

if TYPE_CHECKING:  # pragma: no cover - typing only
    GuardTick = Callable[[str], bool]


class CoreCounters:
    """Hot-path counters for one parse.

    The integer twin of the public ``ParseStats``: the inner loop bumps
    these, and the orchestrator folds them into ``ParseStats`` once per
    parse.  Field semantics match ``ParseStats`` exactly.
    """

    __slots__ = (
        "instances_created",
        "instances_pruned",
        "rollback_kills",
        "preference_applications",
        "fixpoint_rounds",
        "combos_examined",
        "combos_prefiltered",
        "symbol_truncations",
        "truncated",
        "deadline_exceeded",
    )

    def __init__(self) -> None:
        self.instances_created = 0
        self.instances_pruned = 0
        self.rollback_kills = 0
        self.preference_applications = 0
        self.fixpoint_rounds = 0
        self.combos_examined = 0
        self.combos_prefiltered = 0
        self.symbol_truncations = 0
        self.truncated = False
        self.deadline_exceeded = False


class SymbolBudget:
    """Combination allowance for one symbol's fix-point."""

    __slots__ = ("combos_left",)

    def __init__(self, combos_left: int):
        self.combos_left = combos_left


#: A chain symbol's steps ``X -> X Y`` (see :func:`drop_doomed_chains`).
ChainSteps = tuple[Production, ...]


class ParseCore:
    """Per-parse mutable bookkeeping shared by the construction phases.

    Owns the parse's :class:`~repro.grammar.instance.InternTable`; every
    instance entering the parse goes through :meth:`register`, which
    interns it and maintains the symbol pools and the parent links
    rollback follows.
    """

    __slots__ = (
        "table",
        "parents",
        "store",
        "dirty_symbols",
        "instances_left",
        "combos_left",
        "compacted_at_kills",
    )

    def __init__(self, instances_left: int, combos_left: int):
        self.table = InternTable()
        #: ``parents[iid]``: the registered instances built directly from
        #: instance *iid*, in registration order (which is creation
        #: order).  Kept here rather than on the instances so that the
        #: forest a parse returns has no child -> parent back-references.
        self.parents: list[list[Instance]] = []
        self.store: dict[str, list[Instance]] = {}
        #: Symbols whose store pool currently contains dead instances --
        #: pool snapshots must filter those; clean pools can be aliased.
        self.dirty_symbols: set[str] = set()
        self.instances_left = instances_left
        self.combos_left = combos_left
        self.compacted_at_kills = 0

    @property
    def all_instances(self) -> list[Instance]:
        """Every instance registered this parse, in intern (iid) order."""
        return self.table.instances

    def register(self, instance: Instance) -> None:
        self.table.add(instance)
        parents = self.parents
        parents.append([])
        for child in instance.children:
            parents[child.iid].append(instance)
        symbol = instance.symbol
        pool = self.store.get(symbol)
        if pool is None:
            self.store[symbol] = [instance]
        else:
            pool.append(instance)

    def compact(self) -> None:
        """Drop dead instances from the store pools.

        The intern table keeps everything (maximization and the result
        object need the dead for accounting); only the ``store`` pools --
        what preference enforcement and pool snapshots iterate -- are
        compacted.  Only dirty pools are rewritten, in place and in
        relative order, so enumeration order and winner selection are
        unaffected.
        """
        for symbol in self.dirty_symbols:
            pool = self.store[symbol]
            pool[:] = [instance for instance in pool if instance.alive]
        self.dirty_symbols.clear()


def maybe_compact(core: ParseCore, counters: CoreCounters) -> None:
    """Compact the store pools once enough instances have died.

    Amortized: a sweep costs O(live + dead) and only runs after the dead
    amount to a quarter of everything registered, so enforcement's
    candidate scans and pool snapshots never drag long runs of tombstones.
    """
    kills = counters.instances_pruned + counters.rollback_kills
    dead_since = kills - core.compacted_at_kills
    if dead_since * 4 >= max(64, len(core.table)):
        core.compact()
        core.compacted_at_kills = kills


# -- phase 1: fix-point instantiation -----------------------------------------------


def instantiate_symbol(
    symbol: str,
    productions: list[Production],
    core: ParseCore,
    cap: SymbolBudget,
    counters: CoreCounters,
    tick: "GuardTick | None",
    chain_steps: ChainSteps | None = None,
) -> int:
    """Run one symbol's semi-naive fix-point; return #created.

    Frontier-based evaluation in the Datalog semi-naive tradition: round
    *k* only enumerates combinations containing at least one instance
    created in round *k - 1* (the frontier), so no combination is ever
    examined twice and no dedup set is needed.

    With *chain_steps* (a chain symbol's steps, see
    :func:`drop_doomed_chains`), each round's chains that the symbol's
    self-``subsumes`` rule would kill when the symbol ends are dropped
    before they are registered or counted.
    """
    store = core.store
    dirty = core.dirty_symbols
    # Pools of non-head components are frozen for the whole fix-point:
    # no other symbol is instantiated and nothing dies until it ends, so
    # snapshot (and index) them once.  A store pool with no tombstones
    # is aliased outright: only the head symbol's pool grows meanwhile.
    fixed_pools: dict[str, list[Instance]] = {}
    for production in productions:
        for component in production.components:
            if component != symbol and component not in fixed_pools:
                pool = store.get(component)
                if pool is None:
                    fixed_pools[component] = []
                elif component in dirty:
                    fixed_pools[component] = [
                        inst for inst in pool if inst.alive
                    ]
                else:
                    fixed_pools[component] = pool
    tables: dict[str, GeometryTable] = {}
    recursive = [p for p in productions if symbol in p.components]
    # The head pool grows during the fix-point, so it is always a copy.
    head_store = store.get(symbol, [])
    head_pool: list[Instance] = (
        [inst for inst in head_store if inst.alive]
        if symbol in dirty
        else list(head_store)
    )
    created_total = 0
    delta_len = 0
    first_round = True
    stop = False
    while True:
        counters.fixpoint_rounds += 1
        new_instances: list[Instance] = []
        old_len = len(head_pool) - delta_len
        for production in productions if first_round else recursive:
            plans = _round_plans(
                production, symbol, fixed_pools, head_pool, old_len,
                first_round,
            )
            for pools in plans:
                remaining = (
                    core.instances_left - created_total - len(new_instances)
                )
                if remaining <= 0:
                    counters.truncated = True
                    stop = True
                    break
                new_instances.extend(
                    _apply_seminaive(
                        production, pools, fixed_pools, tables, core, cap,
                        counters, remaining, tick,
                    )
                )
                if (
                    cap.combos_left <= 0
                    or core.combos_left <= 0
                    or counters.deadline_exceeded
                ):
                    counters.truncated = True
                    stop = True
                    break
            if stop:
                break
        if chain_steps is not None and not stop:
            new_instances = drop_doomed_chains(new_instances, chain_steps)
        for instance in new_instances:
            core.register(instance)
        counters.instances_created += len(new_instances)
        created_total += len(new_instances)
        head_pool.extend(new_instances)
        delta_len = len(new_instances)
        first_round = False
        if stop or not new_instances:
            return created_total


def _round_plans(
    production: Production,
    symbol: str,
    fixed_pools: dict[str, list[Instance]],
    head_pool: list[Instance],
    old_len: int,
    first_round: bool,
) -> list[list[list[Instance]]]:
    """Pool assignments enumerating this round's new combinations.

    First round: one plan over the full pools.  Later rounds: the
    frontier (instances created last round, the tail of *head_pool*)
    must appear in at least one head-component position; the standard
    semi-naive partition assigns, for each head position *d*, the
    frontier to *d*, only pre-frontier instances to head positions
    before *d*, and the full pool to head positions after *d* --
    exactly the combinations not enumerated in any earlier round, each
    exactly once.
    """
    components = production.components
    if first_round:
        return [
            [
                head_pool if component == symbol else fixed_pools[component]
                for component in components
            ]
        ]
    growing = [
        index for index, component in enumerate(components)
        if component == symbol
    ]
    old = head_pool[:old_len]
    delta = head_pool[old_len:]
    plans: list[list[list[Instance]]] = []
    for d in growing:
        pools: list[list[Instance]] = []
        for index, component in enumerate(components):
            if component != symbol:
                pools.append(fixed_pools[component])
            elif index < d:
                pools.append(old)
            elif index == d:
                pools.append(delta)
            else:
                pools.append(head_pool)
        plans.append(pools)
    return plans


def _apply_seminaive(
    production: Production,
    pools: list[list[Instance]],
    fixed_pools: dict[str, list[Instance]],
    tables: dict[str, GeometryTable],
    core: ParseCore,
    cap: SymbolBudget,
    counters: CoreCounters,
    budget: int,
    tick: "GuardTick | None",
) -> list[Instance]:
    """Apply one production over one pool plan, creating at most
    *budget* new instances (counted once registered, by the caller)."""
    for pool in pools:
        if not pool:
            return []
    created: list[Instance] = []
    try_apply = production.try_apply
    append = created.append
    # Budget counters are mirrored into locals for the duration of the
    # enumeration (one attribute store per *combination* adds up) and
    # written back in ``finally`` so a raise-mode guard's exception
    # still leaves the shared accounting exact.
    budget_left = budget
    cap_left = cap.combos_left
    core_left = core.combos_left
    examined = 0
    try:
        for combo in _combos(production, pools, fixed_pools, tables, counters):
            if budget_left <= 0 or cap_left <= 0 or core_left <= 0:
                counters.truncated = True
                break
            if tick is not None and tick("parse"):
                counters.truncated = True
                counters.deadline_exceeded = True
                break
            cap_left -= 1
            core_left -= 1
            examined += 1
            instance = try_apply(combo)
            if instance is not None:
                budget_left -= 1
                append(instance)
    finally:
        cap.combos_left = cap_left
        core.combos_left = core_left
        counters.combos_examined += examined
    return created


def _combos(
    production: Production,
    pools: list[list[Instance]],
    fixed_pools: dict[str, list[Instance]],
    tables: dict[str, GeometryTable],
    counters: CoreCounters,
) -> Iterator[tuple[Instance, ...]]:
    """Enumerate candidate combinations, pre-filtered by the
    production's declarative spatial bounds.

    Candidates at every position are visited in pool (intern) order,
    whether produced by a plain filtered scan or by the sorted window of
    :meth:`GeometryTable.select`, so the combination order matches the
    naive cartesian product with bound-violating combinations removed.
    """
    components = production.components
    bounds_by_target = production.bounds_by_target
    n = len(pools)
    if n == 1:
        for instance in pools[0]:
            yield (instance,)
        return
    if not production.bounds:
        yield from itertools.product(*pools)
        return
    combo: list[Instance] = [None] * n  # type: ignore[list-item]

    def candidates(position: int) -> list[Instance]:
        pool = pools[position]
        checks = bounds_by_target[position]
        if not checks:
            return pool
        component = components[position]
        if pool is fixed_pools.get(component) and len(pool) >= MIN_INDEXED_POOL:
            # Window path: the pool is the frozen full pool of a fixed
            # component, large enough that bisecting its coordinate-sorted
            # rows down to a band's window beats a scan.
            table = tables.get(component)
            if table is None:
                table = tables[component] = GeometryTable(pool)
            selected = table.select(checks, combo)
        else:
            selected = [cand for cand in pool if passes(cand, checks, combo)]
        counters.combos_prefiltered += len(pool) - len(selected)
        return selected

    if n == 2:
        # Binary productions dominate practical 2P grammars, so unroll
        # the recursive expansion into two plain loops.  Position 0
        # never carries checks (bounds require ``i < j``).
        for anchor in pools[0]:
            combo[0] = anchor
            for candidate in candidates(1):
                yield (anchor, candidate)
        return
    yield from _expand(0, combo, candidates)


def _expand(
    position: int,
    combo: list[Instance],
    candidates: Callable[[int], list[Instance]],
) -> Iterator[tuple[Instance, ...]]:
    """Depth-first expansion of *combo* from *position* onwards.

    A module-level generator rather than a closure of :func:`_combos`:
    a nested function that recurses through its own name holds itself
    in a closure cell, a reference cycle per call that only the cyclic
    garbage collector could free.
    """
    if position == len(combo):
        yield tuple(combo)
        return
    for candidate in candidates(position):
        combo[position] = candidate
        yield from _expand(position + 1, combo, candidates)


# -- linear chain assembly ------------------------------------------------------------


def drop_doomed_chains(
    new_instances: list[Instance], chain_steps: ChainSteps
) -> list[Instance]:
    """One round's new chains, less those a longer chain would kill.

    For a *chain symbol* ``X`` (see
    :func:`repro.parser.schedule.self_subsuming_heads`), whose
    productions are seeds ``X -> Y`` and steps ``X -> X Y``
    (*chain_steps*), the criterion-free self-``subsumes`` preference
    kills every chain that a longer, non-derived chain covers strictly.  Chains it would kill
    are dropped as soon as the round builds them, before they are
    registered, counted or extended.  The round's chains are taken one
    *group* at a time, the seeds or the extensions of one chain ``x``,
    in creation order: the order end-of-symbol enforcement takes its
    losers in, killing each with the first live chain that covers it
    strictly.  At its turn a chain is dropped when

    * *sub-row*: another chain of its group covers it strictly (for
      extensions ``x+y`` and ``x+y'``, ``y`` a sub-row of ``y'``);
    * *source* (seeds) and *skip* (extensions): a live chain of its
      group -- later in the group, or kept at its own turn -- *feeds*
      it: a step can append the chain's last row to that chain, whose
      extension then covers the chain strictly without deriving from it;
    * *heir*: every chain feeding it was dropped before its turn, but
      the extension that covers one of them (its *heir*, built here and
      never registered) can still be stepped onto its row.

    A chain's extensions live until the chain itself dies, so a chain
    whose dead feeders' heirs cannot reach its row is kept: rows on a
    staircase, each within a step of the last but not of their union,
    keep a chain each.  So each chain only starts at a source row and
    never branches onto a row a sibling can still reach; where rows
    feed each other in a cycle, the last of them is kept.  Survivors
    keep their creation order, so both evaluators, which create a
    round's instances in the same order, drop the same chains.
    """
    groups: dict[int, list[Instance]] = {}  # prefix iid (-1: seeds) -> chains
    for instance in new_instances:
        children = instance.children
        prefix = children[0].iid if len(children) > 1 else -1
        groups.setdefault(prefix, []).append(instance)
    dropped: set[int] = set()  # ids
    for group in groups.values():
        if len(group) > 1:
            _drop_covered(group, chain_steps, dropped)
    if not dropped:
        return new_instances
    return [inst for inst in new_instances if id(inst) not in dropped]


def _drop_covered(
    group: list[Instance], chain_steps: ChainSteps, dropped: set[int]
) -> None:
    """Add to *dropped* (as ``id``) each chain of *group* that the rules
    of :func:`drop_doomed_chains` drop, in creation order.

    A chain *w* feeds a chain *v* when some step would append *v*'s last
    row to *w*: the row is disjoint from *w*, and the step's bounds,
    constraint and constructor accept the pair.  From
    ``MIN_INDEXED_POOL`` rows on, the bounds window the rows around each
    witness first, as in enumeration; below it, each pair meets the
    constraint first, which rejects most of them more cheaply.
    """
    rows = [chain.children[-1] for chain in group]
    sub_rows = _sub_rows(rows)
    # Two chains of a group can end on one row (through two productions
    # of one shape), so each row is tested once.
    holders: dict[int, list[int]] = {}  # id(row) -> positions in group
    for position, row in enumerate(rows):
        holders.setdefault(id(row), []).append(position)
    distinct = [rows[held[0]] for held in holders.values()]
    table = (
        GeometryTable(distinct) if len(distinct) >= MIN_INDEXED_POOL else None
    )
    feeders: list[list[int]] = [[] for _ in group]
    for step in chain_steps:
        symbol = step.components[1]
        checks = step.bounds_by_target[1]
        constraint = step.constraint
        constructor = step.constructor
        for witness_position, witness in enumerate(group):
            mask = witness.coverage_mask
            combo = (witness,)
            windowed = table is not None
            for row in table.select(checks, combo) if windowed else distinct:
                # Production.try_apply's tests, without building the
                # instance.
                if (
                    row.symbol == symbol
                    and not mask & row.coverage_mask
                    and constraint(witness, row)
                    and (windowed or passes(row, checks, combo))
                    and constructor(witness, row) is not None
                ):
                    for position in holders[id(row)]:
                        feeders[position].append(witness_position)
    alive = [True] * len(group)
    # What covers each dropped chain: the position of the live feeder
    # whose extension killed it, or its built heir, or None (a wider
    # sibling, or nothing known).
    covers: list[Instance | int | None] = [None] * len(group)
    for position, fed_by in enumerate(feeders):
        if not sub_rows[position]:
            killer = next(
                (f for f in fed_by if f > position or alive[f]), None
            )
            if killer is not None:
                covers[position] = killer
            else:
                row = rows[position]
                for feeder in fed_by:
                    base = _heir(feeder, position, group, rows, alive,
                                 covers, chain_steps)
                    if base is not None:
                        heir = _step_onto(base, row, chain_steps)
                        if heir is not None:
                            covers[position] = heir
                            break
                else:
                    continue  # kept
        alive[position] = False
        dropped.add(id(group[position]))


def _heir(
    position: int,
    turn: int,
    group: list[Instance],
    rows: list[Instance],
    alive: list[bool],
    covers: list[Instance | int | None],
    chain_steps: ChainSteps,
) -> Instance | None:
    """The live chain that covers the dropped chain at *position*'s row
    at *turn* (a later position), built but not registered: its killer
    extended by the row while the killer lives, else the killer's own
    heir extended by it.  ``None`` where no step reaches the row.

    A killer is a later chain or a kept one, so the walk only moves
    forward; an heir built from decided chains alone is stored in
    *covers* for later turns.
    """
    path: list[int] = []
    node = position
    while True:
        cover = covers[node]
        if cover is None:
            return None
        if isinstance(cover, Instance):
            base, final = cover, True
            break
        path.append(node)
        if cover > turn or alive[cover]:
            base, final = group[cover], cover < turn
            break
        node = cover
    for node in reversed(path):
        extension = _step_onto(base, rows[node], chain_steps)
        if extension is None:
            return None
        base = extension
        if final:
            covers[node] = base
    return base


def _sub_rows(rows: list[Instance]) -> list[bool]:
    """Which of *rows* another of them covers strictly.

    The rows of a group extend one chain (or none), so a chain covers a
    sibling strictly exactly when its row covers the sibling's row
    strictly.  Such a row holds the sibling's lowest token, so only the
    rows holding that token are tested.
    """
    masks = [row.coverage_mask for row in rows]
    holding: dict[int, list[int]] = {}  # token bit -> masks holding it
    for mask in masks:
        rest = mask
        while rest:
            bit = rest & -rest
            holding.setdefault(bit, []).append(mask)
            rest ^= bit
    return [
        any(
            other & mask == mask and other != mask
            for other in (holding[mask & -mask] if mask else masks)
        )
        for mask in masks
    ]


def _step_onto(
    chain: Instance, row: Instance, chain_steps: ChainSteps
) -> Instance | None:
    """*chain* extended by *row* under the first step that takes it,
    built but not registered; ``None`` if no step does."""
    for step in chain_steps:
        if row.symbol == step.components[1] and passes(
            row, step.bounds_by_target[1], (chain,)
        ):
            extension = step.try_apply((chain, row))
            if extension is not None:
                return extension
    return None


# -- just-in-time pruning -------------------------------------------------------------


def enforce(
    core: ParseCore, preference: Preference, counters: CoreCounters
) -> None:
    """Enforce one preference: invalidate losers, roll back ancestors.

    Run once for each symbol the preference involves, when that symbol's
    fix-point ends (paper Figure 11).  Each symbol is instantiated once,
    in schedule order, so a two-symbol preference's first pass finds the
    other symbol's pool empty and no pair is ever tested twice.

    Pools keep their dead until :func:`maybe_compact` sweeps them, so the
    alive winners are listed once per pass rather than skipped once per
    loser.
    """
    loser_pool = core.store.get(preference.loser_symbol)
    if not loser_pool:
        return
    winner_pool = core.store.get(preference.winner_symbol)
    if not winner_pool:
        return
    losers = [inst for inst in loser_pool if inst.alive]
    if not losers:
        return
    winners = (
        losers if winner_pool is loser_pool
        else [inst for inst in winner_pool if inst.alive]
    )
    if not winners:
        return
    _kill_losers(core, preference, losers, winners, counters)


def _kill_losers(
    core: ParseCore,
    preference: Preference,
    losers: list[Instance],
    winners: list[Instance],
    counters: CoreCounters,
) -> None:
    """Roll back every loser a live winner in *winners* beats.

    Each loser still alive when the scan reaches it gets one candidate
    list, in pool order, built from its coverage mask rather than from a
    loser x winner matrix: a strict superset for ``subsumes`` (whose
    predicate is then never called), a shared token (the framework's
    conflict requirement) for every other rule.  A kill only depends on
    *whether* some candidate beats the loser, so the first candidate
    that passes the ancestry tests and the rule's own predicates
    decides, and a loser that dies with a derivation chain before its
    turn never gets a list at all.  *winners* were alive when the pass
    began; one that has died since is skipped.
    """
    condition = preference.condition
    subsume = condition is subsumes
    criteria = preference.criteria
    for loser in losers:
        if not loser.alive:  # may have died from an earlier rollback
            continue
        loser_mask = loser.coverage_mask
        if subsume:
            # A strict superset; equal coverage (the loser itself
            # included) is no strict superset.
            candidates = [
                winner for winner in winners
                if winner.coverage_mask & loser_mask == loser_mask
                and winner.coverage_mask != loser_mask
            ]
        else:
            candidates = [
                winner for winner in winners
                if winner.coverage_mask & loser_mask
            ]
        if not candidates:
            continue
        loser_iid = loser.iid
        loser_descendants = 0  # descendant-iid mask, decoded lazily
        for candidate in candidates:
            if not candidate.alive:
                continue
            if loser_descendants == 0:
                loser_descendants = loser.descendant_iid_mask()
            if (loser_descendants >> candidate.iid) & 1:
                continue  # the loser derives from the candidate
            candidate_descendants = candidate._descendant_iid_mask
            if candidate_descendants is None:
                candidate_descendants = candidate.descendant_iid_mask()
            if (candidate_descendants >> loser_iid) & 1:
                continue  # the candidate derives from the loser
            if not subsume and not condition(candidate, loser):
                continue
            if criteria(candidate, loser):
                counters.preference_applications += 1
                rollback(core, loser, counters)
                break


def rollback(
    core: ParseCore, instance: Instance, counters: CoreCounters
) -> None:
    """Invalidate *instance* and every live ancestor built from it.

    Ancestors are found through the core's parent table
    (:attr:`ParseCore.parents`).  The symbols of killed instances go to
    ``core.dirty_symbols``, so pool snapshots know which store lists now
    contain tombstones.
    """
    parents = core.parents
    dirty = core.dirty_symbols
    stack = [instance]
    first = True
    while stack:
        node = stack.pop()
        if not node.alive or node.is_terminal:
            continue
        node.alive = False
        dirty.add(node.symbol)
        if first:
            counters.instances_pruned += 1
            first = False
        else:
            counters.rollback_kills += 1
        stack.extend(parent for parent in parents[node.iid] if parent.alive)
