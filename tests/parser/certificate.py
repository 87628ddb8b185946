"""Result certificates: check a parse against the paper's definitions.

The parser's other oracles compare it with a variant of itself (linear
chain assembly off, the naive evaluator, shifted ids); a mistake both sides
share passes them all.  :func:`certify` instead checks what a result
must satisfy, from the :class:`~repro.parser.parser.ParseResult` and its
grammar alone:

* every node of every returned tree satisfies its production (§4.1):
  the component symbols, the declarative bounds, the constraint
  re-evaluated, token-disjoint children, and a coverage mask equal to
  the OR of the children's;
* the returned trees are exactly the maximal alive candidate roots
  (§5.3): one per maximal coverage, the larger derivation first, then
  the earlier;
* no alive instance of a self-subsuming symbol (a recursive symbol whose
  every preference is a self-``subsumes`` one) is strictly subsumed by
  an alive instance of the same symbol that does not derive from it
  (§4.2: such a pair is the preference's conflict situation with its
  winner's criterion holding).
"""

from __future__ import annotations

from repro.grammar.grammar import TwoPGrammar
from repro.grammar.instance import Instance
from repro.grammar.preference import always, subsumes
from repro.parser.parser import ParseResult
from repro.parser.spatial_index import passes


def certify(result: ParseResult, grammar: TwoPGrammar) -> None:
    """Raise ``AssertionError`` naming the first definition *result*
    breaks; return quietly when it keeps them all."""
    for tree in result.trees:
        for node in tree.descendants():
            _check_node(node)
    _check_maximal_roots(result)
    for symbol in self_subsuming_symbols(grammar):
        _check_no_subsumed_survivor(result, symbol)


def self_subsuming_symbols(grammar: TwoPGrammar) -> list[str]:
    """Recursive symbols whose every preference is a criterion-free
    self-``subsumes`` one, read off the grammar."""
    symbols = []
    for symbol in sorted(grammar.nonterminals):
        preferences = grammar.preferences_involving(symbol)
        recursive = any(
            symbol in production.components
            for production in grammar.productions_for(symbol)
        )
        if recursive and preferences and all(
            preference.winner_symbol == symbol
            and preference.loser_symbol == symbol
            and preference.condition is subsumes
            and preference.criteria is always
            for preference in preferences
        ):
            symbols.append(symbol)
    return symbols


def _check_node(node: Instance) -> None:
    assert node.alive, f"{node!r}: a returned tree holds a dead node"
    if node.token is not None:
        assert node.symbol == node.token.terminal, f"{node!r}: terminal symbol"
        assert not node.children, f"{node!r}: a terminal with children"
        assert node.coverage_mask == 1 << node.token.id, (
            f"{node!r}: terminal coverage is not its token"
        )
        return
    production = node.production
    children = node.children
    assert production is not None, f"{node!r}: a nonterminal without production"
    assert production.head == node.symbol, f"{node!r}: head {production.head}"
    assert tuple(child.symbol for child in children) == production.components, (
        f"{node!r}: children do not match {production}"
    )
    for position, child in enumerate(children):
        assert passes(child, production.bounds_by_target[position], children), (
            f"{node!r}: component {position} breaks the bounds of {production}"
        )
    assert production.constraint(*children), (
        f"{node!r}: the constraint of {production} fails"
    )
    union = 0
    for child in children:
        assert not union & child.coverage_mask, (
            f"{node!r}: children share a token"
        )
        union |= child.coverage_mask
    assert node.coverage_mask == union, (
        f"{node!r}: coverage is not the union of its children's"
    )


def _candidate_roots(instances: list[Instance]) -> list[Instance]:
    """Alive nonterminals that no alive instance has as a child."""
    extended = set()
    for instance in instances:
        if instance.alive:
            extended.update(id(child) for child in instance.children)
    return [
        instance for instance in instances
        if instance.alive and not instance.is_terminal
        and id(instance) not in extended
    ]


def _check_maximal_roots(result: ParseResult) -> None:
    candidates = _candidate_roots(result.instances)
    maximal: dict[int, Instance] = {}
    for candidate in candidates:
        mask = candidate.coverage_mask
        if any(
            other.coverage_mask & mask == mask and other.coverage_mask != mask
            for other in candidates
        ):
            continue
        best = maximal.get(mask)
        if best is None or (candidate.size(), -candidate.uid) > (
            best.size(), -best.uid
        ):
            maximal[mask] = candidate
    returned = {tree.coverage_mask: tree for tree in result.trees}
    assert len(returned) == len(result.trees), "two trees cover the same tokens"
    assert returned.keys() == maximal.keys(), (
        "the returned trees are not the maximal candidate roots"
    )
    for mask, tree in returned.items():
        assert tree is maximal[mask], (
            f"{tree!r}: not the largest, earliest root of its coverage"
        )


def _check_no_subsumed_survivor(result: ParseResult, symbol: str) -> None:
    alive = [
        instance for instance in result.instances
        if instance.alive and instance.symbol == symbol
    ]
    for loser in alive:
        mask = loser.coverage_mask
        for winner in alive:
            covers = winner.coverage_mask
            if covers & mask != mask or covers == mask:
                continue
            assert (winner.descendant_iid_mask() >> loser.iid) & 1, (
                f"alive {loser!r} is subsumed by alive {winner!r}"
            )
