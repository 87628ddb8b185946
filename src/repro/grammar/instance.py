"""Parse instances: nodes of the (possibly partial) parse trees.

An *instance* is one application of a grammar symbol to a region of the
form: terminal instances wrap tokens; nonterminal instances are produced by
a production from component instances.  Every instance knows its bounding
box, the set of token ids it covers, its semantic payload (attribute
labels, operator lists, assembled conditions) and its children.

Links point downwards only.  The reverse edges rollback needs (which
instances were built from this one) live in the parse's
:class:`~repro.parser.core.ParseCore`, not on the instance, so a finished
parse forest is acyclic and reference counting frees it as soon as the
last result drops it -- the cyclic garbage collector never has to.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Iterator

from repro.layout.box import BBox
from repro.tokens.model import Token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grammar.production import Production

_instance_counter = itertools.count()


class Instance:
    """One node in a parse forest.

    Instances are identity-hashed and carry a serial ``uid`` so data
    structures are deterministic.  ``alive`` flips to ``False`` when a
    preference invalidates the instance (directly or by rollback).
    """

    __slots__ = (
        "uid",
        "iid",
        "symbol",
        "children",
        "_coverage",
        "coverage_mask",
        "bbox",
        "payload",
        "token",
        "production",
        "alive",
        "_descendant_uids",
        "_descendant_iid_mask",
    )

    def __init__(
        self,
        symbol: str,
        bbox: BBox,
        children: tuple["Instance", ...] = (),
        coverage: frozenset[int] | None = None,
        payload: dict[str, Any] | None = None,
        token: Token | None = None,
        production: "Production | None" = None,
        coverage_mask: int | None = None,
    ):
        self.uid: int = next(_instance_counter)
        # Dense per-parse intern id, assigned by the parse's
        # :class:`InternTable` at registration (-1 until then).  Within one
        # parse, iid order equals registration order equals uid order, so
        # the parser's bookkeeping can swap the global uid for the dense
        # iid without changing any ordering-dependent decision.
        self.iid: int = -1
        self.symbol = symbol
        self.children = children
        if coverage_mask is None:
            # Token ids are small per-form serials, so the coverage set
            # doubles as an int bitmask -- disjointness and conflict tests
            # become single machine-word (for typical forms) AND operations
            # instead of frozenset intersections.
            coverage_mask = 0
            if coverage is not None:
                for token_id in coverage:
                    coverage_mask |= 1 << token_id
            else:
                for child in children:
                    coverage_mask |= child.coverage_mask
        self.coverage_mask: int = coverage_mask
        # The frozenset view is decoded from the mask on first access:
        # most instances are temporary (built, pruned, never reported), so
        # eagerly materializing their coverage sets is wasted work on the
        # parser's hottest path.
        self._coverage: frozenset[int] | None = coverage
        self.bbox = bbox
        self.payload: dict[str, Any] = payload or {}
        self.token = token
        self.production = production
        self.alive = True
        self._descendant_uids: frozenset[int] | None = None
        self._descendant_iid_mask: int | None = None

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def for_token(cls, token: Token) -> "Instance":
        """Wrap *token* as a terminal instance."""
        return cls(
            symbol=token.terminal,
            bbox=token.bbox,
            coverage=frozenset({token.id}),
            payload=dict(token.attrs),
            token=token,
        )

    @property
    def is_terminal(self) -> bool:
        return self.token is not None

    @property
    def coverage(self) -> frozenset[int]:
        """Ids of the tokens this instance covers.

        Decoded lazily from :attr:`coverage_mask` (bit *i* set == token
        ``i`` covered) and cached; the mask is the authoritative
        representation.
        """
        coverage = self._coverage
        if coverage is None:
            mask = self.coverage_mask
            ids = []
            while mask:
                low = mask & -mask
                ids.append(low.bit_length() - 1)
                mask ^= low
            coverage = self._coverage = frozenset(ids)
        return coverage

    # -- tree structure -----------------------------------------------------------

    def descendants(self) -> Iterator["Instance"]:
        """Yield self and every node below it (pre-order)."""
        stack: list[Instance] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def descendant_uids(self) -> frozenset[int]:
        """Uids of this instance and every node below it (cached).

        Children are fixed at construction, so the set is computed once and
        memoized; subtrees shared across the parse DAG reuse their cache.
        """
        cached = self._descendant_uids
        if cached is not None:
            return cached
        # Resolve bottom-up without recursion: push nodes whose children
        # are not all cached yet, then combine.
        stack: list[Instance] = [self]
        while stack:
            node = stack[-1]
            if node._descendant_uids is not None:
                stack.pop()
                continue
            pending = [
                child for child in node.children
                if child._descendant_uids is None
            ]
            if pending:
                stack.extend(pending)
                continue
            uids = {node.uid}
            for child in node.children:
                uids.update(child._descendant_uids)  # type: ignore[arg-type]
            node._descendant_uids = frozenset(uids)
            stack.pop()
        return self._descendant_uids  # type: ignore[return-value]

    def descendant_iid_mask(self) -> int:
        """Bitmask of interned ids over this instance's subtree (cached).

        Bit ``i`` is set when the node with intern id *i* (see :attr:`iid`
        and :class:`InternTable`) occurs in the subtree rooted here, self
        included.  The interned counterpart of :meth:`descendant_uids`:
        dense ids make the set an arbitrary-precision int, so building it
        is one ``|=`` per child instead of a hash insert per node, and an
        ancestry test is a shift-and-mask instead of a set lookup.  Only
        meaningful once every node of the subtree has been interned
        (``iid >= 0``), which the parser guarantees -- components are
        always registered before any production combines them.
        """
        cached = self._descendant_iid_mask
        if cached is not None:
            return cached
        # Usually every child's mask is cached already: one ``|=`` each.
        mask = 1 << self.iid
        for child in self.children:
            child_mask = child._descendant_iid_mask
            if child_mask is None:
                break
            mask |= child_mask
        else:
            self._descendant_iid_mask = mask
            return mask
        # Resolve bottom-up without recursion, mirroring descendant_uids.
        stack: list[Instance] = [self]
        while stack:
            node = stack[-1]
            if node._descendant_iid_mask is not None:
                stack.pop()
                continue
            pending = [
                child for child in node.children
                if child._descendant_iid_mask is None
            ]
            if pending:
                stack.extend(pending)
                continue
            mask = 1 << node.iid
            for child in node.children:
                child_mask = child._descendant_iid_mask
                assert child_mask is not None
                mask |= child_mask
            node._descendant_iid_mask = mask
            stack.pop()
        result = self._descendant_iid_mask
        assert result is not None
        return result

    def is_ancestor_of(self, other: "Instance") -> bool:
        """True when *other* occurs in this instance's subtree (strictly)."""
        if other is self:
            return False
        return other.uid in self.descendant_uids()

    def size(self) -> int:
        """Number of nodes in this subtree (paper counts both T and NT)."""
        return sum(1 for _ in self.descendants())

    def tokens(self) -> list[Token]:
        """Tokens at the leaves, in uid order."""
        return sorted(
            (node.token for node in self.descendants() if node.token is not None),
            key=lambda token: token.id,
        )

    def find_all(self, symbol: str) -> Iterator["Instance"]:
        """Yield descendants (including self) labelled *symbol*."""
        for node in self.descendants():
            if node.symbol == symbol:
                yield node

    # -- conflicts ----------------------------------------------------------------

    def conflicts_with(self, other: "Instance") -> bool:
        """True when the instances compete for a token.

        Two instances conflict when their coverages intersect and neither is
        part of the other's derivation (a list trivially "overlaps" its own
        sublist component; that is composition, not conflict).
        """
        if other is self:
            return False
        if not (self.coverage_mask & other.coverage_mask):
            return False
        mine = self._descendant_uids
        if mine is None:
            mine = self.descendant_uids()
        if other.uid in mine:
            return False
        theirs = other._descendant_uids
        if theirs is None:
            theirs = other.descendant_uids()
        return self.uid not in theirs

    # -- presentation --------------------------------------------------------------

    def pretty(self, indent: int = 0) -> str:
        """Multi-line tree rendering, useful in tests and examples."""
        pad = "  " * indent
        if self.token is not None:
            label = self.token.sval if self.token.terminal == "text" else (
                self.token.name or ""
            )
            own = f"{pad}{self.symbol} {label!r}".rstrip()
        else:
            own = f"{pad}{self.symbol}"
        lines = [own]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        status = "" if self.alive else " DEAD"
        return (
            f"<Instance #{self.uid} {self.symbol} "
            f"cov={sorted(self.coverage)}{status}>"
        )


class InternTable:
    """Dense per-parse instance interning.

    Every instance a parse registers gets the next dense id (``iid``),
    stored on the instance and usable as an index into :attr:`instances`.
    Dense ids are what let the parser core keep its bookkeeping in
    id-keyed arrays and bitmasks instead of object sets: intern order is
    registration order, so comparisons over iids make the same decisions
    the global ``uid`` serial would, while staying compact
    (``iid`` ranges over ``[0, len(table))`` for one parse, however many
    parses ran before).

    One table serves exactly one parse; instances are never interned
    twice (re-registering is a bug the ``assert`` below catches in
    tests).
    """

    __slots__ = ("instances",)

    def __init__(self) -> None:
        self.instances: list[Instance] = []

    def __len__(self) -> int:
        return len(self.instances)

    def add(self, instance: Instance) -> int:
        """Intern *instance*, assigning and returning its dense id."""
        assert instance.iid < 0, "instance interned twice"
        iid = len(self.instances)
        instance.iid = iid
        self.instances.append(instance)
        return iid

    def get(self, iid: int) -> Instance:
        """The instance interned as *iid*."""
        return self.instances[iid]
