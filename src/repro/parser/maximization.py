"""Partial-tree maximization (paper Section 5.3).

When the grammar cannot interpret the whole interface, the parser ends with
many partial derivation trees.  The best-effort semantics keeps the
*maximum* ones: trees whose covered-token set is not subsumed by another
surviving tree's.  Overlapping-but-incomparable trees are all kept (the
merger will report their overlap as conflicts); a complete parse is the
special case that subsumes everything.
"""

from __future__ import annotations

from repro.grammar.instance import Instance


def candidate_roots(instances: list[Instance]) -> list[Instance]:
    """Live nonterminal instances that no live parent can extend further.

    An instance is extended when it is a child of a live instance of
    *instances*.  Instances link to their children only, so the extended
    set is gathered in one pass over the live instances, keyed by
    identity: hand-built instances that were never registered with a
    parse (``iid == -1``) work as well.
    """
    extended = {
        id(child)
        for instance in instances
        if instance.alive
        for child in instance.children
    }
    return [
        instance
        for instance in instances
        if instance.alive
        and not instance.is_terminal
        and id(instance) not in extended
    ]


def maximal_roots(instances: list[Instance]) -> list[Instance]:
    """Maximum partial trees under token-coverage subsumption.

    A candidate is dropped when another candidate's coverage strictly
    contains its own.  Among candidates with identical coverage only one
    survives: the one with the larger derivation (more nodes -- "looking
    at larger context", Section 5.3), then the earlier-derived, keeping
    results deterministic.
    """
    candidates = candidate_roots(instances)
    # Sort once: larger coverage first, then richer interpretation, then
    # earlier derivation.  Coverage size and subsumption both run on the
    # int bitmask (popcount / masked AND) so no coverage set is decoded.
    candidates.sort(
        key=lambda inst: (-inst.coverage_mask.bit_count(), -inst.size(), inst.uid)
    )
    kept: list[Instance] = []
    for candidate in candidates:
        mask = candidate.coverage_mask
        subsumed = False
        for winner in kept:
            if mask & winner.coverage_mask == mask:
                subsumed = True
                break
        if not subsumed:
            kept.append(candidate)
    # Present trees in reading order.
    kept.sort(key=lambda inst: (inst.bbox.top, inst.bbox.left, inst.uid))
    return kept


def covered_tokens(roots: list[Instance]) -> frozenset[int]:
    """Union of the token ids covered by *roots*."""
    covered: set[int] = set()
    for root in roots:
        covered |= root.coverage
    return frozenset(covered)
