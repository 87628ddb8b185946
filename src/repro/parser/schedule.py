"""The 2P schedule graph (paper Section 5.2, Figures 12-13).

Just-in-time pruning needs instances generated in an order where every
preference's winner-type instances exist before the loser-type's, so that a
false instance is pruned the moment it is generated, before it breeds more
ambiguity.  The schedule graph encodes two requirements as "must run
before" edges over the grammar's symbols:

* **d-edges** (from productions): a head symbol runs after all of its
  component symbols (children-parent order).  These are mandatory; cyclic
  d-edges (other than self-recursion, which the per-symbol fix-point
  handles) make the grammar unschedulable.
* **r-edges** (from preferences): a winner symbol runs before the loser
  symbol.  These are an optimization; when an r-edge would close a cycle,
  it is *transformed* -- the winner is instead ordered before every parent
  of the loser, which still prevents false instances from breeding -- and
  if even the transformed edges close cycles, the r-edge is *relaxed*
  (dropped) and rollback compensates for the late pruning.

The graph construction itself lives in :func:`build_schedule_graph`, a
total function (it never raises) shared between the runtime scheduler
(:func:`build_schedule`) and the static analyzer
(:mod:`repro.analysis`), so the analyzer's preview of cycles,
transformations, and relaxations cannot drift from what the parser will
actually do.  :func:`self_subsuming_heads`, which says which recursive
symbols the parser assembles linearly, is shared the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol

from repro.grammar.preference import Preference, always, subsumes
from repro.grammar.production import Production

#: How an r-edge was accommodated by the greedy scheduler.
ACTION_DIRECT = "direct"
ACTION_TRANSFORMED = "transformed"
ACTION_RELAXED = "relaxed"
ACTION_SELF = "self"

#: Cap on enumerated elementary cycles (diagnostics stay readable even for
#: adversarial grammars; the cap is far above anything a real grammar hits).
MAX_REPORTED_CYCLES = 16


class SchedulableGrammar(Protocol):
    """The slice of a grammar the scheduler needs.

    Satisfied by :class:`~repro.grammar.grammar.TwoPGrammar` and by the
    analyzer's unvalidated :class:`~repro.analysis.view.GrammarView`.
    """

    @property
    def productions(self) -> tuple[Production, ...]: ...

    @property
    def preferences(self) -> tuple[Preference, ...]: ...

    def component_heads(self, symbol: str) -> set[str]: ...


class ScheduleError(ValueError):
    """Raised when the mandatory d-edges are cyclic.

    Attributes:
        cycles: Every elementary d-edge cycle found (up to
            :data:`MAX_REPORTED_CYCLES`), each a node path whose first and
            last element coincide.
    """

    def __init__(self, message: str, cycles: tuple[tuple[str, ...], ...] = ()):
        super().__init__(message)
        self.cycles = cycles


@dataclass(frozen=True)
class REdgeDecision:
    """What the greedy scheduler decided for one preference's r-edge.

    Attributes:
        preference: The preference whose r-edge was processed.
        action: One of ``"direct"`` (winner -> loser edge added),
            ``"transformed"`` (winner ordered before the loser's parents
            instead), ``"relaxed"`` (dropped; rollback compensates), or
            ``"self"`` (winner == loser; self-cycles never affect
            scheduling).
        targets: The edge targets actually added (the loser for
            ``direct``, the loser's parent heads for ``transformed``,
            empty otherwise).
        reason: Human-readable explanation for ``transformed``/``relaxed``
            decisions.
    """

    preference: Preference
    action: str
    targets: tuple[str, ...] = ()
    reason: str = ""


@dataclass
class ScheduleGraph:
    """The full schedule-graph construction record.

    Attributes:
        nodes: Production heads in declaration order.
        edges: Final "runs before" adjacency (d-edges plus the r-edges the
            greedy pass admitted).  When :attr:`cycles` is non-empty the
            adjacency holds the (cyclic) d-edges only and no r-edge was
            processed.
        cycles: Elementary d-edge cycles (empty for schedulable grammars).
        decisions: One :class:`REdgeDecision` per preference, in
            declaration order (empty when the d-edges are cyclic).
        provenance: For every edge ``(source, target)``, the production
            and preference names that put it there (diagnostics and error
            messages).
    """

    nodes: tuple[str, ...]
    edges: dict[str, set[str]] = field(default_factory=dict)
    cycles: tuple[tuple[str, ...], ...] = ()
    decisions: tuple[REdgeDecision, ...] = ()
    provenance: dict[tuple[str, str], tuple[str, ...]] = field(
        default_factory=dict
    )

    @property
    def transformed(self) -> list[Preference]:
        """Preferences whose r-edge the greedy pass transformed."""
        return [
            decision.preference
            for decision in self.decisions
            if decision.action == ACTION_TRANSFORMED
        ]

    @property
    def relaxed(self) -> list[Preference]:
        """Preferences whose r-edge the greedy pass dropped."""
        return [
            decision.preference
            for decision in self.decisions
            if decision.action == ACTION_RELAXED
        ]

    def describe_cycle(self, cycle: tuple[str, ...]) -> str:
        """Render one cycle with per-edge provenance."""
        parts: list[str] = []
        for source, target in zip(cycle, cycle[1:]):
            names = ", ".join(self.provenance.get((source, target), ()))
            arrow = f"{source} -> {target}"
            parts.append(f"{arrow} (via {names})" if names else arrow)
        return "; ".join(parts)


@dataclass
class Schedule:
    """Result of scheduling a grammar.

    Attributes:
        order: Nonterminals in instantiation order.
        transformed: Preferences whose r-edge was replaced by indirect
            r-edges to the loser's parents.
        relaxed: Preferences whose ordering could not be honoured at all;
            their pruning relies on rollback.
        edges: The final "runs before" adjacency used for the topological
            sort (useful for tests and visualization).
    """

    order: list[str]
    transformed: list[Preference] = field(default_factory=list)
    relaxed: list[Preference] = field(default_factory=list)
    edges: dict[str, set[str]] = field(default_factory=dict)

    def position(self, symbol: str) -> int:
        """Index of *symbol* in the instantiation order."""
        return self.order.index(symbol)


def _has_path(edges: Mapping[str, set[str]], source: str, target: str) -> bool:
    """True when *target* is reachable from *source*."""
    if source == target:
        return True
    seen = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for successor in edges.get(node, ()):
            if successor == target:
                return True
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return False


def _would_cycle(edges: Mapping[str, set[str]], source: str, target: str) -> bool:
    """True when adding ``source -> target`` would create a cycle."""
    return _has_path(edges, target, source)


def _elementary_cycles(
    nodes: tuple[str, ...],
    edges: Mapping[str, set[str]],
    limit: int = MAX_REPORTED_CYCLES,
) -> tuple[tuple[str, ...], ...]:
    """Enumerate elementary cycles, capped at *limit*.

    Each cycle is reported exactly once, rooted at its
    lowest-declaration-index node, as a node path ``(a, b, ..., a)``.
    """
    index = {node: position for position, node in enumerate(nodes)}

    def successors(node: str) -> list[str]:
        return sorted(edges.get(node, ()), key=lambda s: index.get(s, len(index)))

    cycles: list[tuple[str, ...]] = []
    for start in nodes:
        if len(cycles) >= limit:
            break
        path = [start]
        on_path = {start}
        pending = [iter(successors(start))]
        while pending and len(cycles) < limit:
            try:
                nxt = next(pending[-1])
            except StopIteration:
                pending.pop()
                on_path.discard(path.pop())
                continue
            if index.get(nxt, -1) < index[start]:
                continue  # rooted at an earlier node; already reported
            if nxt == start:
                cycles.append(tuple(path) + (start,))
                continue
            if nxt in on_path:
                continue
            path.append(nxt)
            on_path.add(nxt)
            pending.append(iter(successors(nxt)))
    return tuple(cycles)


def build_schedule_graph(grammar: SchedulableGrammar) -> ScheduleGraph:
    """Build the schedule graph without raising.

    Collects every d-edge (with production provenance), enumerates d-edge
    cycles, and -- when the d-edges are acyclic -- replays the greedy
    r-edge pass, recording a :class:`REdgeDecision` per preference.  Both
    :func:`build_schedule` and the static analyzer consume this single
    construction, so runtime behaviour and static preview agree by
    definition.
    """
    nodes: list[str] = []
    seen_nodes: set[str] = set()
    for production in grammar.productions:
        if production.head not in seen_nodes:
            seen_nodes.add(production.head)
            nodes.append(production.head)

    edges: dict[str, set[str]] = {node: set() for node in nodes}
    provenance: dict[tuple[str, str], tuple[str, ...]] = {}

    # d-edges: component runs before head (self-recursion handled by the
    # per-symbol fix-point, so self-edges are omitted).
    for production in grammar.productions:
        head = production.head
        for component in production.components:
            if component in seen_nodes and component != head:
                edges[component].add(head)
                key = (component, head)
                if production.name not in provenance.get(key, ()):
                    provenance[key] = provenance.get(key, ()) + (
                        production.name,
                    )

    cycles = _elementary_cycles(tuple(nodes), edges)
    if cycles:
        return ScheduleGraph(
            nodes=tuple(nodes),
            edges=edges,
            cycles=cycles,
            provenance=provenance,
        )

    # r-edges, added greedily in declaration order (paper Section 5.2).
    decisions: list[REdgeDecision] = []
    for preference in grammar.preferences:
        winner = preference.winner_symbol
        loser = preference.loser_symbol
        if winner == loser:
            # Self-cycles do not affect scheduling.
            decisions.append(REdgeDecision(preference, ACTION_SELF))
            continue
        if winner not in seen_nodes or loser not in seen_nodes:
            missing = [s for s in (winner, loser) if s not in seen_nodes]
            decisions.append(
                REdgeDecision(
                    preference,
                    ACTION_RELAXED,
                    reason="no production instantiates "
                    + " or ".join(repr(s) for s in missing),
                )
            )
            continue
        if not _would_cycle(edges, winner, loser):
            edges[winner].add(loser)
            key = (winner, loser)
            if preference.name not in provenance.get(key, ()):
                provenance[key] = provenance.get(key, ()) + (
                    f"preference {preference.name}",
                )
            decisions.append(
                REdgeDecision(preference, ACTION_DIRECT, targets=(loser,))
            )
            continue
        # Transformation: order the winner before every parent of the loser
        # instead; the loser's false instances then still cannot breed.
        parent_heads = sorted(
            head
            for head in grammar.component_heads(loser)
            if head != winner and head != loser and head in seen_nodes
        )
        if parent_heads and all(
            not _would_cycle(edges, winner, parent) for parent in parent_heads
        ):
            for parent in parent_heads:
                edges[winner].add(parent)
                key = (winner, parent)
                tag = f"preference {preference.name} (transformed)"
                if tag not in provenance.get(key, ()):
                    provenance[key] = provenance.get(key, ()) + (tag,)
            decisions.append(
                REdgeDecision(
                    preference,
                    ACTION_TRANSFORMED,
                    targets=tuple(parent_heads),
                    reason=f"direct r-edge {winner} -> {loser} closes a "
                    "cycle; winner ordered before the loser's parents "
                    "instead",
                )
            )
        else:
            if not parent_heads:
                reason = (
                    f"direct r-edge {winner} -> {loser} closes a cycle and "
                    f"{loser} has no other parent productions to transform "
                    "through"
                )
            else:
                reason = (
                    f"direct r-edge {winner} -> {loser} closes a cycle and "
                    "the transformed edges "
                    + ", ".join(f"{winner} -> {p}" for p in parent_heads)
                    + " would close cycles too"
                )
            decisions.append(
                REdgeDecision(preference, ACTION_RELAXED, reason=reason)
            )

    return ScheduleGraph(
        nodes=tuple(nodes),
        edges=edges,
        cycles=(),
        decisions=tuple(decisions),
        provenance=provenance,
    )


def self_subsuming_heads(
    grammar: SchedulableGrammar,
) -> dict[str, tuple[Production, ...]]:
    """Recursive heads whose every preference is a self-``subsumes``
    rule, each mapped to its chain steps (empty unless a chain symbol).

    A head ``X`` is a *chain symbol* when its productions are seeds
    ``X -> Y`` and steps ``X -> X Y`` only (``Y`` never ``X``) and its
    rules have no winning criteria.  The parser assembles a chain
    symbol linearly (:func:`repro.parser.core.drop_doomed_chains`): it
    drops the chains its rule would kill before building on them.  Any
    other head listed here is pruned only when its fix-point ends, after
    every stack has been built; the analyzer warns about it (``P014``).
    Total over unvalidated grammars, so parser and lint share it.
    """
    productions: dict[str, list[Production]] = {}
    for production in grammar.productions:
        productions.setdefault(production.head, []).append(production)
    rules: dict[str, list[Preference]] = {}
    for preference in grammar.preferences:
        for symbol in {preference.winner_symbol, preference.loser_symbol}:
            rules.setdefault(symbol, []).append(preference)
    heads: dict[str, tuple[Production, ...]] = {}
    for symbol, own in productions.items():
        preferences = rules.get(symbol)
        if (
            not preferences
            or not any(symbol in production.components for production in own)
            or not all(
                preference.condition is subsumes
                and preference.winner_symbol == symbol
                and preference.loser_symbol == symbol
                for preference in preferences
            )
        ):
            continue
        seeds = [
            production for production in own
            if len(production.components) == 1
            and production.components[0] != symbol
        ]
        steps = tuple(
            production for production in own
            if len(production.components) == 2
            and production.components[0] == symbol
            and production.components[1] != symbol
        )
        chain = (
            seeds
            and steps
            and len(seeds) + len(steps) == len(own)
            and all(preference.criteria is always for preference in preferences)
        )
        heads[symbol] = steps if chain else ()
    return heads


def build_schedule(grammar: SchedulableGrammar) -> Schedule:
    """Build the 2P schedule graph and a topological instantiation order.

    Raises:
        ScheduleError: the mandatory d-edges are cyclic.  The message
            enumerates **every** elementary cycle (up to
            :data:`MAX_REPORTED_CYCLES`) with the productions that
            contribute each edge, and the error's :attr:`ScheduleError.cycles`
            carries them structurally.
    """
    graph = build_schedule_graph(grammar)
    if graph.cycles:
        rendered = " | ".join(
            graph.describe_cycle(cycle) for cycle in graph.cycles
        )
        count = len(graph.cycles)
        suffix = "+" if count >= MAX_REPORTED_CYCLES else ""
        raise ScheduleError(
            f"d-edges are cyclic: {count}{suffix} cycle(s): {rendered}",
            cycles=graph.cycles,
        )
    order = _topological_order(list(graph.nodes), graph.edges, graph)
    return Schedule(
        order=order,
        transformed=graph.transformed,
        relaxed=graph.relaxed,
        edges=graph.edges,
    )


def _topological_order(
    nodes: list[str],
    edges: Mapping[str, set[str]],
    graph: ScheduleGraph | None = None,
) -> list[str]:
    """Kahn's algorithm, stable with respect to declaration order."""
    indegree: dict[str, int] = {node: 0 for node in nodes}
    for targets in edges.values():
        for target in targets:
            indegree[target] += 1
    ready = [node for node in nodes if indegree[node] == 0]
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for target in sorted(edges.get(node, ()), key=nodes.index):
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    if len(order) != len(nodes):  # pragma: no cover - guarded by d-edge check
        leftover = tuple(node for node in nodes if node not in order)
        cycles = _elementary_cycles(leftover, dict(edges))
        detail = (
            " | ".join(graph.describe_cycle(cycle) for cycle in cycles)
            if graph is not None and cycles
            else ", ".join(leftover)
        )
        raise ScheduleError(
            f"schedule graph is cyclic after relaxation: {detail}",
            cycles=cycles,
        )
    return order


def edge_list(edges: Mapping[str, Iterable[str]]) -> list[tuple[str, str]]:
    """Flatten an adjacency into sorted ``(source, target)`` pairs."""
    return sorted(
        (source, target)
        for source, targets in edges.items()
        for target in targets
    )
