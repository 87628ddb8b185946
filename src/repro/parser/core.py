"""The fix-point inner loop of the best-effort parser.

This module is the parser's hot core, kept apart from
:mod:`repro.parser.parser` as plain strict-typed Python: no dynamic
attributes, slotted hot classes, and no module-level mutable state.

Everything here operates on *interned* instances: each parse owns an
:class:`~repro.grammar.instance.InternTable` assigning dense ids
(``Instance.iid``) in registration order, and the bookkeeping that used to
key on the global ``uid`` serial and object sets now runs on id-keyed
arrays and bitmasks:

* the per-token winner index holds parallel ``(iids, instances)`` list
  pairs, so watermark skipping is a C-speed ``bisect`` over a plain int
  list;
* ancestry tests use :meth:`Instance.descendant_iid_mask` -- one
  arbitrary-precision int per subtree, built with ``|=`` instead of a
  hash insert per node, tested with a shift-and-mask instead of a set
  lookup;
* preference watermarks store the highest interned id seen at the last
  enforcement pass (iid order equals registration order equals uid
  order, so every ordering-dependent decision is unchanged);
* rollback's reverse edges (child -> the instances built from it) are a
  per-iid table on :class:`ParseCore`, filled at registration from each
  instance's children.  Instances link downwards only, so once the core
  is dropped a finished parse holds no reference cycle and reference
  counting frees it; nothing here builds a self-referencing closure
  either.

Hot counters accumulate in :class:`CoreCounters` and are folded into
``ParseStats`` once per parse by the orchestrating
:class:`~repro.parser.parser.BestEffortParser`, which also schedules
symbols and runs maximization.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Iterator

import numpy

from repro.grammar.instance import Instance, InternTable
from repro.grammar.preference import Preference
from repro.grammar.production import Production
from repro.parser.spatial_index import (
    MIN_INDEXED_POOL,
    GeometryTable,
    h_allows,
    v_allows,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grammar.production import AxisSpec

    TargetCheck = tuple[int, "AxisSpec", "AxisSpec"]
    GuardTick = Callable[[str], bool]

#: Cell cap for materializing the full loser x winner candidacy matrix in
#: masked enforcement.  The uint64 intermediates cost 8 bytes per cell, so
#: this bounds the transient allocation to ~16 MiB; larger (degenerate)
#: pools fall back to computing one row per alive loser instead.
_MASKED_MATRIX_CELLS = 1 << 21


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
        "spatial_memo_hits",
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
        self.spatial_memo_hits = 0
        self.symbol_truncations = 0
        self.truncated = False
        self.deadline_exceeded = False


class SymbolBudget:
    """Combination allowance for one symbol's fix-point."""

    __slots__ = ("combos_left",)

    def __init__(self, combos_left: int):
        self.combos_left = combos_left


class SpatialMemo:
    """Memoized spatial evaluations for one symbol's fix-point.

    Tables are keyed on interned identities (instance ``iid`` ints plus
    the ``id`` of the production-owned check tuple, which is alive for the
    grammar's lifetime):

    * ``pairs`` -- ``(id(check), anchor_iid, candidate_iid) -> bool``
      verdicts of individual axis-envelope predicates (pools scanned
      without a table);
    * ``selections`` -- ``(id(checks), *anchor_iids) -> list`` full
      :meth:`GeometryTable.select` results for one position's check tuple
      against one anchor binding (the indexed pool is frozen for the
      whole fix-point, so the selection is stable).

    Scoped to one symbol's fix-point: component pools are frozen for its
    duration, and discarding the memo afterwards keeps ``id()``-based keys
    safe from address reuse across symbols.
    """

    __slots__ = ("pairs", "selections")

    def __init__(self) -> None:
        self.pairs: dict[tuple[int, int, int], bool] = {}
        self.selections: dict[tuple[int, ...], list[Instance]] = {}


#: A winner-index bucket: parallel ``(iids, instances)`` lists in
#: registration order, so the watermark prefix is skipped with one
#: ``bisect_left`` over the plain int list.
Bucket = tuple[list[int], list[Instance]]

#: One enforceable preference: ``(ordinal, preference, subsume?)``.  The
#: ordinal keys the enforcement watermark; the flag selects the
#: ``subsumes`` fast path.
PreferenceEntry = tuple[int, Preference, bool]


class ParseCore:
    """Per-parse mutable bookkeeping shared by the construction phases.

    Owns the parse's :class:`~repro.grammar.instance.InternTable`; every
    instance entering the parse goes through :meth:`register`, which
    interns it and maintains the symbol pools, the parent links rollback
    follows, and (for symbols that can win some preference) the
    per-token winner index.
    """

    __slots__ = (
        "table",
        "parents",
        "store",
        "winner_symbols",
        "winner_index",
        "masked_enforcement",
        "preference_watermark",
        "dirty_symbols",
        "instances_left",
        "combos_left",
        "compacted_at_kills",
    )

    def __init__(
        self,
        instances_left: int,
        combos_left: int,
        winner_symbols: frozenset[str] = frozenset(),
    ):
        self.table = InternTable()
        #: ``parents[iid]``: the registered instances built directly from
        #: instance *iid*, in registration order (which is creation
        #: order).  Kept here rather than on the instances so that the
        #: forest a parse returns has no child -> parent back-references.
        self.parents: list[list[Instance]] = []
        self.store: dict[str, list[Instance]] = {}
        #: Symbols that can win some preference: only their instances are
        #: token-indexed, so ``find_winner`` scans winner candidates only
        #: and ``register`` skips the reverse index for everything else.
        self.winner_symbols = winner_symbols
        self.winner_index: dict[str, dict[int, Bucket]] = {}
        #: When True every preference is enforced through vectorized
        #: coverage-mask comparisons and no token index is maintained
        #: (machine-word-sized masks only: every token id below 64).
        self.masked_enforcement = False
        #: Per-preference enforcement watermark: the highest interned id
        #: registered when the preference was last enforced.  Winner/loser
        #: pairs that both predate the watermark were already tested then
        #: (preference predicates are pure functions of the immutable
        #: instance data, so a no-win verdict is permanent) and are
        #: skipped on later passes.
        self.preference_watermark: dict[int, int] = {}
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
        iid = self.table.add(instance)
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
        if symbol in self.winner_symbols:
            index = self.winner_index.get(symbol)
            if index is None:
                index = self.winner_index[symbol] = {}
            mask = instance.coverage_mask
            while mask:
                low = mask & -mask
                mask ^= low
                token_id = low.bit_length() - 1
                bucket = index.get(token_id)
                if bucket is None:
                    index[token_id] = ([iid], [instance])
                else:
                    bucket[0].append(iid)
                    bucket[1].append(instance)

    def compact(self) -> None:
        """Drop dead instances from the lookup lists.

        The intern table keeps everything (maximization and the result
        object need the dead for accounting); only the ``store`` pools and
        the winner token index -- the structures preference enforcement
        and pool snapshots iterate -- are compacted.  Relative order is
        preserved, so enumeration order and winner selection are
        unaffected.
        """
        for instances in self.store.values():
            if any(not instance.alive for instance in instances):
                instances[:] = [i for i in instances if i.alive]
        for index in self.winner_index.values():
            for token_id in list(index):
                iids, instances = index[token_id]
                if any(not instance.alive for instance in instances):
                    survivors = [i for i in instances if i.alive]
                    index[token_id] = (
                        [inst.iid for inst in survivors],
                        survivors,
                    )
        self.dirty_symbols.clear()


def maybe_compact(core: ParseCore, counters: CoreCounters) -> None:
    """Compact the lookup lists once enough instances have died.

    Amortized: a sweep costs O(live + dead) and only runs after the dead
    amount to a quarter of everything registered, so :func:`find_winner`
    and pool snapshots never scan long runs of tombstones.
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
    memoize: bool,
    round_preferences: tuple[PreferenceEntry, ...],
) -> int:
    """Run one symbol's semi-naive fix-point; return #created.

    Frontier-based evaluation in the Datalog semi-naive tradition: round
    *k* only enumerates combinations containing at least one instance
    created in round *k - 1* (the frontier), so no combination is ever
    examined twice and no dedup set is needed.

    *round_preferences* (the symbol's self-``subsumes`` preferences, see
    :func:`prune_round`) are enforced after every round, so killed
    instances leave the head pool and the frontier before the next round
    can build on them.
    """
    store = core.store
    dirty = core.dirty_symbols
    # Pools of non-head components are frozen for the whole fix-point:
    # no other symbol is instantiated, and round pruning only kills
    # head-symbol instances (and their ancestors, which at this point
    # are head-symbol instances too), so snapshot (and index) them once.
    # A store pool with no tombstones is aliased outright -- it cannot
    # mutate until this fix-point ends (only the head symbol's pool
    # grows, and compaction runs between symbols, never during one).
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
    memo = SpatialMemo() if memoize else None
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
                        production, pools, fixed_pools, tables, memo, core,
                        cap, counters, remaining, tick,
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
        for instance in new_instances:
            core.register(instance)
        created_total += len(new_instances)
        if new_instances and prune_round(core, round_preferences, counters):
            head_pool = [inst for inst in head_pool if inst.alive]
            new_instances = [inst for inst in new_instances if inst.alive]
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
    memo: SpatialMemo | None,
    core: ParseCore,
    cap: SymbolBudget,
    counters: CoreCounters,
    budget: int,
    tick: "GuardTick | None",
) -> list[Instance]:
    """Apply one production over one pool plan, creating at most
    *budget* new instances."""
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
        for combo in _combos(
            production, pools, fixed_pools, tables, memo, counters
        ):
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
        counters.instances_created += len(created)
    return created


def _combos(
    production: Production,
    pools: list[list[Instance]],
    fixed_pools: dict[str, list[Instance]],
    tables: dict[str, GeometryTable],
    memo: SpatialMemo | None,
    counters: CoreCounters,
) -> Iterator[tuple[Instance, ...]]:
    """Enumerate candidate combinations, pre-filtered by the
    production's declarative spatial bounds.

    Candidates at every position are visited in pool (intern) order,
    whether produced by a plain filtered scan or a vectorized
    :meth:`GeometryTable.select`, so the combination order matches the
    naive cartesian product with bound-violating combinations removed.
    With *memo* set, predicate verdicts and table selections already
    evaluated this fix-point are reused instead of recomputed
    (``CoreCounters.spatial_memo_hits``); the selected candidates are
    identical either way.
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
    if n == 2:
        # Binary productions dominate practical 2P grammars, so unroll
        # the recursive expansion into two plain loops.  Position 0
        # never carries checks (bounds require ``i < j``), and every
        # check at position 1 anchors on position 0 -- which is what
        # lets the table answer the whole plan with one batched
        # ``select_rows`` matrix instead of one ``select`` call per
        # anchor.
        pool0, pool1 = pools
        checks1 = bounds_by_target[1]
        component1 = components[1]
        if (
            checks1
            and pool1 is fixed_pools.get(component1)
            and len(pool1) >= MIN_INDEXED_POOL
        ):
            table = tables.get(component1)
            if table is None:
                table = tables[component1] = GeometryTable(pool1)
            selections = table.select_rows(checks1, pool0)
            base = len(pool1)
            # Per-anchor accounting stays lazy (counted when the
            # enumeration reaches the anchor), matching the per-anchor
            # path under early budget breaks.
            for row, anchor in enumerate(pool0):
                selected = selections[row]
                counters.combos_prefiltered += base - len(selected)
                for candidate in selected:
                    yield (anchor, candidate)
            return
    combo: list[Instance] = [None] * n  # type: ignore[list-item]
    # Memoization only pays off for productions with >= 3 components:
    # a pair verdict (or a selection for the same anchors) can only
    # recur when a *third* position varies between two visits; with
    # two components each anchor is visited exactly once per plan, so
    # both tables would be pure dict overhead (measured as a ~10%
    # slowdown on the standard grammar, where 2-component productions
    # dominate and contribute zero memo hits).
    pair_memo = memo if n >= 3 else None

    def candidates(position: int) -> list[Instance]:
        pool = pools[position]
        checks = bounds_by_target[position]
        if not checks:
            return pool
        component = components[position]
        if pool is fixed_pools.get(component) and len(pool) >= MIN_INDEXED_POOL:
            # Columnar path: the pool is the frozen full pool of a fixed
            # component, large enough that evaluating the whole check
            # conjunction as vectorized interval masks beats a scan.
            table = tables.get(component)
            if table is None:
                table = tables[component] = GeometryTable(pool)
            if pair_memo is not None:
                selection_key = (id(checks),) + tuple(
                    combo[check[0]].iid for check in checks
                )
                selected = pair_memo.selections.get(selection_key)
                if selected is None:
                    selected = table.select(checks, combo)
                    pair_memo.selections[selection_key] = selected
                else:
                    counters.spatial_memo_hits += 1
            else:
                selected = table.select(checks, combo)
        else:
            selected = [
                cand for cand in pool
                if passes(cand, checks, combo, pair_memo, counters)
            ]
        counters.combos_prefiltered += len(pool) - len(selected)
        return selected

    if n == 2:
        # The unbatched binary case: one candidate scan per anchor.
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


def passes(
    candidate: Instance,
    checks: "tuple[TargetCheck, ...]",
    combo: list[Instance],
    memo: SpatialMemo | None,
    counters: CoreCounters,
) -> bool:
    """Does *candidate* satisfy every axis-envelope check of *checks*?"""
    box = candidate.bbox
    for check in checks:
        anchor, h_spec, v_spec = check
        anchor_inst = combo[anchor]
        if memo is not None:
            # Checks are tuples owned by the (frozen) production and
            # instances are interned by iid, so identity keys are
            # stable for the whole fix-point this memo spans.
            pair_key = (id(check), anchor_inst.iid, candidate.iid)
            verdict = memo.pairs.get(pair_key)
            if verdict is not None:
                counters.spatial_memo_hits += 1
                if verdict:
                    continue
                return False
            other = anchor_inst.bbox
            verdict = h_allows(h_spec, other, box) and v_allows(
                v_spec, other, box
            )
            memo.pairs[pair_key] = verdict
            if not verdict:
                return False
            continue
        other = anchor_inst.bbox
        if not h_allows(h_spec, other, box):
            return False
        if not v_allows(v_spec, other, box):
            return False
    return True


# -- just-in-time pruning -------------------------------------------------------------


def prune_round(
    core: ParseCore,
    preferences: tuple[PreferenceEntry, ...],
    counters: CoreCounters,
) -> bool:
    """Enforce *preferences* after one fix-point round; True if any died.

    Run by both evaluators on a recursive symbol whose every preference
    is a self-``subsumes`` one (``winner == loser == symbol``): a stack
    subsumed by a bigger stack is killed before the next round can
    extend it, instead of after every subset of rows has been stacked.
    Such a rule compares the symbol only with itself, so running it
    mid-fix-point enforces no preference ahead of its schedule slot;
    the end-of-symbol pass still runs, and the watermark leaves it
    almost nothing to do.
    """
    kills = counters.instances_pruned + counters.rollback_kills
    for ordinal, preference, subsume in preferences:
        enforce(core, ordinal, preference, subsume, counters)
    return counters.instances_pruned + counters.rollback_kills > kills


def enforce(
    core: ParseCore,
    pref_index: int,
    preference: Preference,
    subsume: bool,
    counters: CoreCounters,
) -> None:
    """Enforce one preference: invalidate losers, roll back ancestors.

    Winner candidates come from the incrementally-maintained
    per-winner-symbol token index (buckets in registration order), so
    each loser scans only same-token *winner-symbol* instances instead
    of every instance sharing a token.

    Enforcement is additionally *incremental* across passes: a
    winner/loser pair where both instances predate this preference's
    watermark was already tested the last time the preference ran, and
    a no-win verdict is permanent (predicates are pure, ancestry and
    coverage are immutable, and dead instances never resurrect) -- so
    old losers are only retested against winners registered since.
    """
    watermark = core.preference_watermark.get(pref_index, -1)
    core.preference_watermark[pref_index] = len(core.table) - 1
    loser_pool = core.store.get(preference.loser_symbol)
    if not loser_pool:
        return
    winner_pool = core.store.get(preference.winner_symbol)
    if not winner_pool:
        return
    if (
        0 <= watermark
        and loser_pool[-1].iid <= watermark
        and winner_pool[-1].iid <= watermark
    ):
        # Neither pool has grown since the last pass (pools are
        # iid-ordered, so the tail iid bounds everything): every
        # surviving pair was already tested then, and no-win verdicts
        # are permanent.
        return
    losers = [inst for inst in loser_pool if inst.alive]
    if not losers:
        return
    if core.masked_enforcement:
        _enforce_masked(
            core, preference, losers, winner_pool, watermark, counters,
            subsume,
        )
        return
    winners_by_token = core.winner_index.get(preference.winner_symbol)
    if not winners_by_token:
        return
    for loser in losers:
        if not loser.alive:
            continue  # may have died from an earlier rollback this pass
        min_iid = watermark + 1 if loser.iid <= watermark else 0
        if subsume:
            winner = find_subsuming_winner(
                preference, loser, winners_by_token, min_iid
            )
        else:
            winner = find_winner(
                preference, loser, winners_by_token, min_iid
            )
        if winner is not None:
            counters.preference_applications += 1
            rollback(core, loser, counters)


def _enforce_masked(
    core: ParseCore,
    preference: Preference,
    losers: list[Instance],
    winner_pool: list[Instance],
    watermark: int,
    counters: CoreCounters,
    subsume: bool,
) -> None:
    """Vectorized preference enforcement over coverage bitmasks.

    When every token id fits a ``uint64`` bit no per-token winner index
    exists at all; instead the loser x winner candidacy relation is evaluated as one
    numpy boolean matrix over the ``uint64`` coverage masks -- strict
    superset for ``subsumes`` preferences (the condition itself),
    plain intersection for everything else (the shared-token join the
    token index used to provide).  A kill only depends on *whether*
    some candidate beats the loser, not on which one is found first,
    so scanning candidates in intern order instead of bucket order
    leaves the kill sequence -- and every counter -- identical to the
    winner-index path's.

    Rows are only decoded for losers still alive when the scan
    reaches them: each kill rolls back whole derivation chains, so
    most rows die before their turn and their (potentially dense)
    ancestor-chain hits are never materialized.  The full loser x
    winner matrix is only materialized while it stays small;
    degenerate forms (hundreds of thousands of instances in one
    pool) instead compute each alive loser's hit row on demand,
    keeping peak memory at O(winners) regardless of pool size.
    """
    winner_masks = numpy.fromiter(
        (candidate.coverage_mask for candidate in winner_pool),
        dtype=numpy.uint64,
        count=len(winner_pool),
    )
    hits = None
    if len(winner_pool) * len(losers) <= _MASKED_MATRIX_CELLS:
        loser_masks = numpy.fromiter(
            (loser.coverage_mask for loser in losers),
            dtype=numpy.uint64,
            count=len(losers),
        ).reshape(-1, 1)
        if subsume:
            hits = (winner_masks & loser_masks) == loser_masks
            hits &= winner_masks != loser_masks
        else:
            hits = (winner_masks & loser_masks) != 0
    uint64 = numpy.uint64
    condition = preference.condition
    criteria = preference.criteria
    for row, loser in enumerate(losers):
        if not loser.alive:  # may have died from an earlier rollback
            continue
        min_iid = watermark + 1 if loser.iid <= watermark else 0
        loser_iid = loser.iid
        loser_descendants = 0  # descendant-iid mask, decoded lazily
        if hits is not None:
            row_hits = hits[row]
        else:
            mask = uint64(loser.coverage_mask)
            if subsume:
                row_hits = (winner_masks & mask) == mask
                row_hits &= winner_masks != mask
            else:
                row_hits = (winner_masks & mask) != 0
        for col in row_hits.nonzero()[0].tolist():
            candidate = winner_pool[col]
            if candidate.iid < min_iid or not candidate.alive:
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


def find_winner(
    preference: Preference,
    loser: Instance,
    winners_by_token: dict[int, Bucket],
    min_iid: int = 0,
) -> Instance | None:
    """A live winner-type instance that beats *loser*, if any.

    *winners_by_token* holds only winner-symbol instances (indexed by
    covered token, in registration order), so sharing a bucket already
    implies sharing a token with *loser*.  Candidates with
    ``iid < min_iid`` are skipped -- the caller guarantees those pairs
    were tested (and lost) on an earlier enforcement pass.
    """
    seen: set[int] = set()
    loser_descendants = 0  # descendant-iid mask, decoded lazily
    loser_iid = loser.iid
    condition = preference.condition
    criteria = preference.criteria
    for token_id in loser.coverage:
        bucket = winners_by_token.get(token_id)
        if bucket is None:
            continue
        iids, instances = bucket
        if not iids:
            continue
        start = 0
        if min_iid > 0:
            # Buckets are iid-sorted; jump over the already-tested
            # prefix instead of filtering it one element at a time.
            start = bisect_left(iids, min_iid)
        for position in range(start, len(instances)):
            candidate = instances[position]
            candidate_iid = iids[position]
            if candidate.alive and candidate_iid not in seen:
                seen.add(candidate_iid)
                # Inlined Preference.applies(): symbols are fixed by
                # the index and the shared token by the bucket join,
                # leaving the no-composition (ancestry) test -- with
                # the loser's descendant mask hoisted out of the pair
                # loop -- and the rule's own predicates.
                if loser_descendants == 0:
                    loser_descendants = loser.descendant_iid_mask()
                if (loser_descendants >> candidate_iid) & 1:
                    continue  # the loser derives from the candidate
                candidate_descendants = candidate._descendant_iid_mask
                if candidate_descendants is None:
                    candidate_descendants = candidate.descendant_iid_mask()
                if (candidate_descendants >> loser_iid) & 1:
                    continue  # the candidate derives from the loser
                if condition(candidate, loser) and criteria(
                    candidate, loser
                ):
                    return candidate
    return None


def find_subsuming_winner(
    preference: Preference,
    loser: Instance,
    winners_by_token: dict[int, Bucket],
    min_iid: int = 0,
) -> Instance | None:
    """:func:`find_winner` specialized for ``condition is subsumes``.

    A subsuming winner covers *every* token the loser covers, so it
    appears in every one of the loser's buckets -- scanning just the
    smallest such bucket examines every possible winner exactly once
    (no dedup set needed), and an empty bucket proves no winner
    exists.  The subsumption condition itself runs as two int-mask
    operations instead of a frozenset comparison.  Which winner is
    *returned* may differ from the generic scan when several apply;
    enforcement only uses the winner's existence, so the kill set is
    identical.
    """
    bucket: Bucket | None = None
    for token_id in loser.coverage:
        candidates = winners_by_token.get(token_id)
        if candidates is None or not candidates[0]:
            return None
        if bucket is None or len(candidates[0]) < len(bucket[0]):
            bucket = candidates
    if bucket is None:
        return None
    iids, instances = bucket
    start = 0
    if min_iid > 0:
        # iid-sorted bucket: skip the watermark-cleared prefix outright.
        start = bisect_left(iids, min_iid)
    loser_mask = loser.coverage_mask
    loser_iid = loser.iid
    loser_descendants = 0  # descendant-iid mask, decoded lazily
    criteria = preference.criteria
    for position in range(start, len(instances)):
        candidate = instances[position]
        candidate_mask = candidate.coverage_mask
        if (
            candidate_mask & loser_mask == loser_mask
            and candidate_mask != loser_mask
            and candidate.alive
        ):
            if loser_descendants == 0:
                loser_descendants = loser.descendant_iid_mask()
            if (loser_descendants >> candidate.iid) & 1:
                continue
            candidate_descendants = candidate._descendant_iid_mask
            if candidate_descendants is None:
                candidate_descendants = candidate.descendant_iid_mask()
            if (candidate_descendants >> loser_iid) & 1:
                continue
            if criteria(candidate, loser):
                return candidate
    return None


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
