"""The best-effort parsing algorithm ``2PParser`` (paper Figure 11).

Phases:

1. **Parse construction with just-in-time pruning.**  Symbols are
   instantiated one by one in the 2P schedule order; each symbol runs a
   fix-point over its productions (handling self-recursive rules such as
   ``RBList -> RBList RBU``); at the end of each symbol's instantiation,
   every preference involving that symbol is enforced, and each invalidated
   instance is *rolled back* -- its live ancestors are invalidated too, so
   a false instance's descendants (in the derivation sense: the parents it
   helped build) never survive it.  A chain symbol (``QI``, ``HQI``,
   ``RBList``, ...: seeds ``X -> Y``, steps ``X -> X Y`` and a
   criterion-free self-``subsumes`` rule, see
   :func:`repro.parser.schedule.self_subsuming_heads`) is assembled
   linearly: the chains its rule would kill at the end of the symbol --
   one starting at a row another row stacks onto, one extended by a
   sub-row of a wider sibling, one skipping a row a sibling can still
   reach -- are dropped before they are registered
   (:func:`repro.parser.core.drop_doomed_chains`).  Without this,
   ``QI -> QI HQI`` stacks nearly every gap-respecting subset of a form's
   rows before the bigger-interface rule gets to run once.

2. **Partial-tree maximization** (``PRHandler``): keep the maximum partial
   trees under coverage subsumption.

Visual-language parsing is NP-complete in general (paper Section 5.1); a
configurable instance budget keeps pathological inputs from running away --
when the budget trips, construction stops and the trees built so far are
maximized, which is exactly the best-effort contract.

Fix-point evaluation strategies
-------------------------------

Two interchangeable evaluation modes produce identical parse forests:

* ``"seminaive"`` (default) -- *frontier-based* evaluation in the Datalog
  semi-naive tradition: round *k* of a symbol's fix-point only enumerates
  combinations containing at least one instance created in round *k - 1*
  (the frontier), so no combination is ever examined twice and no dedup
  set is needed.  Productions additionally declare conservative spatial
  ``bounds`` which, bisected over the coordinate-sorted rows of a
  per-symbol :class:`~repro.parser.spatial_index.GeometryTable`,
  pre-filter candidate pools down to geometrically plausible neighbours
  before :meth:`Production.try_apply` runs.
* ``"naive"`` -- the original loop: every round re-enumerates the full
  cartesian product of component pools and skips already-seen combinations
  through a ``seen_keys`` set.  Kept as the equivalence baseline (see
  ``tests/parser/test_seminaive_equivalence.py``) and for the ablation
  benchmarks.

For every grammar whose self-recursive productions use their head symbol
in at most one component position (all practical 2P grammars, including
the standard one), the two modes create instances in the *same order*, so
parse forests, statistics invariants, and merger output are identical.

The core
--------

The hot inner loop -- instance interning, frontier-delta joins,
preference enforcement -- lives in :mod:`repro.parser.core`, a strict-mypy
module.  This module is the orchestration layer: it walks the schedule
and folds the core's counters into :class:`ParseStats`.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass, field, fields, replace

from repro.grammar.grammar import TwoPGrammar
from repro.grammar.instance import Instance
from repro.grammar.preference import Preference
from repro.grammar.production import Production
from repro.parser.core import (
    ChainSteps,
    CoreCounters,
    ParseCore,
    SymbolBudget,
    drop_doomed_chains,
    enforce,
    instantiate_symbol,
    maybe_compact,
)
from repro.parser.maximization import covered_tokens, maximal_roots
from repro.parser.schedule import Schedule, self_subsuming_heads
from repro.tokens.model import Token
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.guard import ResourceGuard

#: Recognised fix-point evaluation strategies.
EVALUATION_MODES = ("seminaive", "naive")


@dataclass
class ParserConfig:
    """Tunables for the parsing algorithm.

    Attributes:
        enable_preferences: When ``False``, the parser degenerates into the
            brute-force exhaustive algorithm of Section 4.2.1 (the ablation
            baseline) -- every interpretation is kept.
        max_instances: Hard budget on created instances; exceeding it stops
            construction (best-effort degradation, never an exception).
        max_combos_per_instance: Bound on candidate combinations *examined*
            per budgeted instance -- without it, a degenerate grammar can
            spend unbounded time rejecting combinations without ever
            reaching the instance budget.  The budget is accounted per
            ``parse()`` call: each symbol's fix-point may examine at most
            ``max_combos_per_instance`` combinations per instance still in
            the budget when the symbol starts, so one pathological
            production truncates *itself* instead of starving the symbols
            scheduled after it.
        evaluation: Fix-point strategy, ``"seminaive"`` (default) or
            ``"naive"`` (see module docstring).
    """

    enable_preferences: bool = True
    max_instances: int = 200_000
    max_combos_per_instance: int = 60
    evaluation: str = "seminaive"

    def __post_init__(self) -> None:
        if self.evaluation not in EVALUATION_MODES:
            raise ValueError(
                f"unknown evaluation mode {self.evaluation!r}; "
                f"expected one of {EVALUATION_MODES}"
            )

    @property
    def max_combos(self) -> int:
        """Whole-parse ceiling on examined combinations."""
        return self.max_instances * self.max_combos_per_instance


@dataclass
class ParseStats:
    """Counters describing one parse (used by the ablation experiments)."""

    tokens: int = 0
    #: Instances registered with the parse; a chain that linear chain
    #: assembly drops before registration is never counted.
    instances_created: int = 0
    instances_pruned: int = 0
    rollback_kills: int = 0
    preference_applications: int = 0
    fixpoint_rounds: int = 0
    combos_examined: int = 0
    #: Candidate components rejected by declarative spatial bounds before
    #: any combination containing them was examined (semi-naive mode only).
    combos_prefiltered: int = 0
    #: Always 0 since the spatial memo went; cached stats and perfbench read it.
    spatial_memo_hits: int = 0
    #: Symbols whose fix-point exhausted its per-symbol combination budget.
    symbol_truncations: int = 0
    truncated: bool = False
    #: True when a :class:`~repro.resilience.guard.ResourceGuard` deadline
    #: stopped construction early (a form of truncation: the partial trees
    #: built so far are still maximized and merged).
    deadline_exceeded: bool = False
    elapsed_seconds: float = 0.0
    #: Phase split of ``elapsed_seconds``: fix-point construction plus
    #: just-in-time pruning vs. partial-tree maximization.  Feeds the
    #: per-stage spans of :mod:`repro.observability`.
    construction_seconds: float = 0.0
    maximization_seconds: float = 0.0

    @classmethod
    def from_dict(cls, stored: dict[str, Any]) -> "ParseStats":
        """Rebuild stored counters (a cache entry, a journal record).

        Unknown fields, written by another version, are dropped; missing
        ones take their defaults.
        """
        known = {spec.name for spec in fields(cls)}
        return cls(**{
            name: value for name, value in stored.items() if name in known
        })

    @property
    def instances_alive(self) -> int:
        return self.instances_created - self.instances_pruned - self.rollback_kills

    def counters(self) -> dict[str, int]:
        """The integer counters as a flat dict (trace spans, metrics)."""
        return {
            "tokens": self.tokens,
            "instances_created": self.instances_created,
            "instances_pruned": self.instances_pruned,
            "rollback_kills": self.rollback_kills,
            "preference_applications": self.preference_applications,
            "fixpoint_rounds": self.fixpoint_rounds,
            "combos_examined": self.combos_examined,
            "combos_prefiltered": self.combos_prefiltered,
            "spatial_memo_hits": self.spatial_memo_hits,
            "symbol_truncations": self.symbol_truncations,
            "truncated": int(self.truncated),
            "deadline_exceeded": int(self.deadline_exceeded),
        }

    def absorb(self, counters: CoreCounters) -> None:
        """Fold one parse's :class:`CoreCounters` into this record."""
        self.instances_created = counters.instances_created
        self.instances_pruned = counters.instances_pruned
        self.rollback_kills = counters.rollback_kills
        self.preference_applications = counters.preference_applications
        self.fixpoint_rounds = counters.fixpoint_rounds
        self.combos_examined = counters.combos_examined
        self.combos_prefiltered = counters.combos_prefiltered
        self.symbol_truncations = counters.symbol_truncations
        self.truncated = self.truncated or counters.truncated
        self.deadline_exceeded = (
            self.deadline_exceeded or counters.deadline_exceeded
        )


@dataclass
class ParseResult:
    """Output of one parse: maximal partial trees plus bookkeeping."""

    trees: list[Instance]
    tokens: list[Token]
    instances: list[Instance] = field(default_factory=list)
    stats: ParseStats = field(default_factory=ParseStats)

    @property
    def covered(self) -> frozenset[int]:
        """Token ids covered by the maximal trees."""
        return covered_tokens(self.trees)

    @property
    def uncovered_tokens(self) -> list[Token]:
        """Tokens no maximal tree interprets (the merger's "missing")."""
        covered = self.covered
        return [token for token in self.tokens if token.id not in covered]

    @property
    def is_complete(self) -> bool:
        """True when a single tree covers every token."""
        return len(self.trees) == 1 and len(self.covered) == len(self.tokens)

    def complete_parses(self, start_symbol: str = "QI") -> list[Instance]:
        """All start-symbol instances covering every token.

        In exhaustive mode each is one alternative complete interpretation
        (the paper counts 25 such parse trees for the Figure 5 fragment);
        in best-effort mode at most the surviving ones remain.
        """
        everything = frozenset(token.id for token in self.tokens)
        return [
            instance
            for instance in self.instances
            if instance.symbol == start_symbol and instance.coverage == everything
        ]

    def temporary_instances(self) -> list[Instance]:
        """Instances that ended up in no maximal tree (paper Section 4.2.1).

        These are the "temporary instances" whose proliferation the
        just-in-time pruning exists to control.
        """
        useful: set[int] = set()
        for tree in self.trees:
            for node in tree.descendants():
                useful.add(node.uid)
        return [
            instance
            for instance in self.instances
            if instance.uid not in useful and not instance.is_terminal
        ]


class BestEffortParser:
    """Parser for a 2P grammar over visual tokens.

    Args:
        grammar: The 2P grammar to parse with.
        config: Parser tunables (see :class:`ParserConfig`).
        validate_grammar: When ``True``, run the static analyzer
            (:func:`repro.analysis.analyze_grammar`) on *grammar* and
            raise :class:`~repro.analysis.GrammarDiagnosticsError` if any
            error-severity diagnostic is found -- fast-fail instead of
            silently parsing worse.  Off by default: the analyzer is
            imported lazily, so the default path carries zero overhead.
    """

    def __init__(
        self,
        grammar: TwoPGrammar,
        config: ParserConfig | None = None,
        validate_grammar: bool = False,
    ):
        from repro.grammar.cache import cached_schedule

        if validate_grammar:
            from repro.analysis import analyze_grammar

            analyze_grammar(grammar).raise_if_errors()
        self.grammar = grammar
        self.config = config or ParserConfig()
        self.schedule: Schedule = cached_schedule(grammar)
        #: ``grammar.preferences_involving`` rebuilt per call scans every
        #: preference; the schedule's symbol set is fixed, so snapshot per
        #: symbol once.
        self._preferences_by_symbol: dict[str, tuple[Preference, ...]] = {
            symbol: tuple(grammar.preferences_involving(symbol))
            for symbol in self.schedule.order
        }
        #: Linear chain assembly: each chain symbol's steps, with which it
        #: drops each round's chains that its rule will kill before
        #: registering them (see :func:`repro.parser.core.drop_doomed_chains`).
        self._chain_steps: dict[str, ChainSteps] = {
            symbol: steps
            for symbol, steps in self_subsuming_heads(grammar).items()
            if steps
        }

    # -- public API -------------------------------------------------------------

    def parse(
        self, tokens: list[Token], guard: ResourceGuard | None = None
    ) -> ParseResult:
        """Parse *tokens* into maximum partial trees (never raises on input).

        A degrade-mode *guard* deadline behaves exactly like budget
        exhaustion: construction stops at a clean point, the trees built
        so far are maximized, and ``stats.deadline_exceeded`` is set
        alongside ``stats.truncated``.  (A raise-mode guard propagates
        ``BudgetExceeded`` instead -- an explicit caller opt-out of the
        never-raises contract.)
        """
        started = time.perf_counter()
        stats = ParseStats(tokens=len(tokens))
        combos_budget = self.config.max_combos
        if guard is not None and guard.limits.max_combos is not None:
            combos_budget = min(combos_budget, guard.limits.max_combos)
        state = ParseCore(
            instances_left=self.config.max_instances,
            combos_left=combos_budget,
        )
        counters = CoreCounters()
        # The cyclic collector is paused for the call.  Everything a parse
        # allocates stays reachable until it returns, so a collection
        # mid-parse can only rescan live state -- on large parses (tens
        # of thousands of instances) about a sixth of the parse time.
        # The finished forest is acyclic and freed by reference counting,
        # so deferring collection changes no result.  Paused only when
        # enabled on entry, and restored on every exit path.
        gc_paused = gc.isenabled()
        if gc_paused:
            gc.disable()
        try:
            for token in tokens:
                state.register(Instance.for_token(token))

            for symbol in self.schedule.order:
                if guard is not None and guard.over_deadline("parse"):
                    counters.truncated = True
                    counters.deadline_exceeded = True
                    break
                created = self._instantiate(symbol, state, counters, guard)
                state.instances_left -= created
                exhausted = (
                    state.instances_left <= 0
                    or state.combos_left <= 0
                    or counters.deadline_exceeded
                )
                if exhausted:
                    counters.truncated = True
                if self.config.enable_preferences:
                    for preference in self._preferences_by_symbol.get(
                        symbol, ()
                    ):
                        enforce(state, preference, counters)
                    maybe_compact(state, counters)
                if exhausted:
                    break

            construction_done = time.perf_counter()
            stats.construction_seconds = construction_done - started
            trees = maximal_roots(state.all_instances)
            stats.maximization_seconds = time.perf_counter() - construction_done
        finally:
            if gc_paused:
                gc.enable()
        stats.absorb(counters)
        stats.elapsed_seconds = time.perf_counter() - started
        return ParseResult(
            trees=trees,
            tokens=tokens,
            instances=state.all_instances,
            stats=stats,
        )

    # -- phase 1: fix-point instantiation ------------------------------------------

    def _instantiate(
        self,
        symbol: str,
        state: ParseCore,
        counters: CoreCounters,
        guard: ResourceGuard | None = None,
    ) -> int:
        """Run ``instantiate(A)`` (paper Figure 11); return #created."""
        productions = self.grammar.productions_for(symbol)
        if not productions:
            return 0
        # Per-symbol combination allowance: proportional to the instance
        # budget remaining for this parse, so a pathological production
        # cannot burn the combination budget owed to later symbols.
        cap = SymbolBudget(
            self.config.max_combos_per_instance * max(1, state.instances_left)
        )
        # Chains are dropped for the rule enforcement runs, so only where
        # it runs.
        chain_steps = (
            self._chain_steps.get(symbol)
            if self.config.enable_preferences
            else None
        )
        if self.config.evaluation == "naive":
            created = self._instantiate_naive(
                symbol, productions, state, cap, counters, guard, chain_steps,
            )
        else:
            created = instantiate_symbol(
                symbol,
                productions,
                state,
                cap,
                counters,
                guard.tick if guard is not None else None,
                chain_steps,
            )
        if cap.combos_left <= 0:
            counters.symbol_truncations += 1
        return created

    # -- naive baseline (the original loop, kept for equivalence) -------------------

    def _instantiate_naive(
        self,
        symbol: str,
        productions: list[Production],
        state: ParseCore,
        cap: SymbolBudget,
        counters: CoreCounters,
        guard: ResourceGuard | None = None,
        chain_steps: ChainSteps | None = None,
    ) -> int:
        """The original fix-point: full cartesian re-enumeration each round
        with a ``seen_keys`` dedup set and no spatial pre-filtering.
        Chain dropping matches the semi-naive evaluator's.
        """
        seen_keys: set[tuple[str, tuple[int, ...]]] = set()
        created_total = 0
        stop = False
        while True:
            counters.fixpoint_rounds += 1
            new_instances: list[Instance] = []
            for production in productions:
                remaining = (
                    state.instances_left - created_total - len(new_instances)
                )
                if remaining <= 0:
                    counters.truncated = True
                    stop = True
                    break
                new_instances.extend(
                    self._apply_naive(
                        production, state, seen_keys, cap, counters,
                        remaining, guard,
                    )
                )
                if (
                    cap.combos_left <= 0
                    or state.combos_left <= 0
                    or counters.deadline_exceeded
                ):
                    counters.truncated = True
                    stop = True
                    break
            if chain_steps is not None and not stop:
                new_instances = drop_doomed_chains(new_instances, chain_steps)
            for instance in new_instances:
                state.register(instance)
            counters.instances_created += len(new_instances)
            created_total += len(new_instances)
            if stop or not new_instances:
                return created_total

    def _apply_naive(
        self,
        production: Production,
        state: ParseCore,
        seen_keys: set[tuple[str, tuple[int, ...]]],
        cap: SymbolBudget,
        counters: CoreCounters,
        budget: int,
        guard: ResourceGuard | None = None,
    ) -> list[Instance]:
        """Apply one production against the current live instances,
        creating at most *budget* new instances."""
        pools: list[list[Instance]] = []
        for component in production.components:
            pool = [
                inst for inst in state.store.get(component, []) if inst.alive
            ]
            if not pool:
                return []
            pools.append(pool)
        created: list[Instance] = []
        for combo in itertools.product(*pools):
            if (
                len(created) >= budget
                or cap.combos_left <= 0
                or state.combos_left <= 0
            ):
                counters.truncated = True
                break
            if guard is not None and guard.tick("parse"):
                counters.truncated = True
                counters.deadline_exceeded = True
                break
            key = (production.name, tuple(inst.uid for inst in combo))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            cap.combos_left -= 1
            state.combos_left -= 1
            counters.combos_examined += 1
            instance = production.try_apply(combo)
            if instance is not None:
                created.append(instance)
        return created


class ExhaustiveParser(BestEffortParser):
    """The brute-force baseline of Section 4.2.1.

    Identical fix-point construction, but no preferences are ever enforced:
    every interpretation survives to the end, where only partial-tree
    maximization runs.  Used by the ablation benchmarks to reproduce the
    "773 instances / 25 parse trees" blow-up the paper reports for the
    amazon.com fragment.
    """

    def __init__(
        self,
        grammar: TwoPGrammar,
        config: ParserConfig | None = None,
        validate_grammar: bool = False,
    ):
        base = config or ParserConfig()
        super().__init__(
            grammar,
            replace(base, enable_preferences=False),
            validate_grammar=validate_grammar,
        )
