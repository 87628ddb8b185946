"""The diagnostic-code catalogue: one registry behind ``lint --explain``.

Every code the analyzer can emit has an entry here -- severity, a
one-paragraph explanation, and the standard fix.  ``docs/GRAMMAR.md``
renders the same catalogue for humans; a test asserts the two stay in
sync with the passes (no emittable code may be missing here).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
)


@dataclass(frozen=True)
class CatalogEntry:
    """Reference documentation for one diagnostic code."""

    code: str
    severity: str
    summary: str
    fix: str

    def describe(self) -> str:
        return (
            f"{self.code} ({self.severity})\n"
            f"  finding: {self.summary}\n"
            f"  fix:     {self.fix}"
        )


def _entry(code: str, severity: str, summary: str, fix: str) -> CatalogEntry:
    return CatalogEntry(code=code, severity=severity, summary=summary, fix=fix)


#: The full catalogue, keyed by code.  Codes are stable: never renumber.
CATALOG: dict[str, CatalogEntry] = {
    entry.code: entry
    for entry in (
        # -- symbols (G001-G008) ------------------------------------------
        _entry("G001", SEVERITY_ERROR,
               "a production component references an undeclared symbol",
               "declare the terminal/nonterminal or fix the typo"),
        _entry("G002", SEVERITY_ERROR,
               "the start symbol is not a declared nonterminal",
               "point start at a symbol that heads productions"),
        _entry("G003", SEVERITY_ERROR,
               "a nonterminal is declared or referenced but has no "
               "productions",
               "add a production for it or remove the references"),
        _entry("G004", SEVERITY_WARNING,
               "a nonterminal is unreachable from the start symbol",
               "link it into the derivation or delete the dead subtree"),
        _entry("G005", SEVERITY_WARNING,
               "an unproductive nonterminal: its fix-point can never "
               "bottom out in terminals",
               "add a non-recursive base production"),
        _entry("G006", SEVERITY_WARNING,
               "a terminal is declared but used by no production",
               "consume it in a pattern or drop the declaration"),
        _entry("G007", SEVERITY_WARNING,
               "a production name is declared more than once",
               "give every production a unique name"),
        _entry("G008", SEVERITY_WARNING,
               "a dead production: a component can never be instantiated",
               "fix the component symbol's own productions first"),
        # -- per-production bounds and callables (G010-G013) ---------------
        _entry("G010", SEVERITY_ERROR,
               "an axis spec admits no geometry on its own",
               "fix the negative gap or inverted interval"),
        _entry("G011", SEVERITY_ERROR,
               "the conjunction of bounds on one component pair/axis is "
               "unsatisfiable",
               "widen or remove one of the contradicting bounds"),
        _entry("G012", SEVERITY_ERROR,
               "the constructor cannot accept one positional argument "
               "per component",
               "match the constructor signature to the component count"),
        _entry("G013", SEVERITY_ERROR,
               "the constraint cannot accept one positional argument "
               "per component",
               "match the constraint signature to the component count"),
        # -- ambiguity / overlap (G020-G024) --------------------------------
        _entry("G020", SEVERITY_WARNING,
               "two same-head productions with identical components, "
               "compatible bounds, and no constraints: every qualifying "
               "combination fires both",
               "merge the duplicates, or add a distinguishing "
               "constraint/bound to one of them"),
        _entry("G021", SEVERITY_INFO,
               "two same-head productions can cover the same token "
               "multiset; only opaque constraints separate them",
               "keep a self-preference (e.g. when=subsumes) on the head "
               "so double fires are arbitrated"),
        _entry("G022", SEVERITY_INFO,
               "two distinct symbols can claim the same multi-token run "
               "(a statically-predicted merger conflict)",
               "add a preference between the two symbols if one reading "
               "should win"),
        _entry("G023", SEVERITY_INFO,
               "two leaf-level symbols compete for the same single token "
               "class",
               "expected for role symbols (Attr vs Note); add a "
               "preference if one role should dominate"),
        _entry("G024", SEVERITY_INFO,
               "yield enumeration hit a cap; overlap analysis is "
               "incomplete for the listed symbols",
               "nothing to fix -- treat missing overlap findings for "
               "these symbols as unknown, not absent"),
        # -- cross-production spatial chains (G030-G031) --------------------
        _entry("G030", SEVERITY_ERROR,
               "spatial bounds are jointly infeasible once chained "
               "through component minimum extents",
               "relax one link of the chain; check transitive "
               "displacement sums against the direct bounds"),
        _entry("G031", SEVERITY_WARNING,
               "a locally-satisfiable production builds instances too "
               "large for every parent context",
               "widen the parent bounds or shrink the production's "
               "minimum chain length"),
        # -- preferences (P001-P007) ---------------------------------------
        _entry("P001", SEVERITY_ERROR,
               "a preference references an undeclared symbol",
               "declare the symbol or fix the typo"),
        _entry("P002", SEVERITY_WARNING,
               "a preference can never fire: neither symbol heads a "
               "production",
               "point the preference at scheduled heads"),
        _entry("P003", SEVERITY_WARNING,
               "a trivial self-preference invalidates every conflicting "
               "pair both ways",
               "add a non-trivial criterion such as when=subsumes"),
        _entry("P004", SEVERITY_WARNING,
               "two unconditional preferences contradict each other "
               "(A > B and B > A)",
               "drop one direction or make one conditional"),
        _entry("P005", SEVERITY_WARNING,
               "a preference is shadowed by an earlier unconditional one "
               "on the same pair",
               "remove the shadowed rule or reorder"),
        _entry("P006", SEVERITY_WARNING,
               "a preference name is declared more than once",
               "give every preference a unique name"),
        _entry("P007", SEVERITY_ERROR,
               "a condition or criteria is not a binary predicate",
               "accept exactly (winner, loser)"),
        # -- preference totality (P010-P013) --------------------------------
        _entry("P010", SEVERITY_WARNING,
               "a head has overlapping productions but no "
               "self-preference; the conflict survivor is iteration "
               "order",
               "add prefer(H, over=H, when=subsumes) or similar"),
        _entry("P011", SEVERITY_INFO,
               "two overlapping symbols have no preference path ordering "
               "them; resolution falls to maximization",
               "add a preference if one reading should systematically "
               "win"),
        _entry("P012", SEVERITY_WARNING,
               "a preference's winner and loser can never cover a common "
               "token class -- the rule is dead",
               "delete the preference or fix the symbols it names"),
        _entry("P013", SEVERITY_WARNING,
               "the preference relation is cyclic across distinct "
               "symbols (A > B > ... > A)",
               "break the cycle so arbitration is a priority order"),
        # -- construction-side pruning (P014) --------------------------------
        _entry("P014", SEVERITY_WARNING,
               "a recursive head arbitrated only by self-subsumes rules is "
               "not a chain symbol (seeds X -> Y, steps X -> X Y, no "
               "winning criteria), so every stack is built before the "
               "rules run",
               "reshape it into seeds and left-recursive steps X -> X Y, "
               "or accept the construction cost"),
        # -- coverage (C001-C005) ------------------------------------------
        _entry("C001", SEVERITY_WARNING,
               "the tokenizer emits a token class the grammar does not "
               "declare",
               "declare the class and give it at least one pattern"),
        _entry("C002", SEVERITY_WARNING,
               "a token class is consumed only by unreachable "
               "productions",
               "connect the consuming heads to the start symbol"),
        _entry("C003", SEVERITY_INFO,
               "an attribute-pattern shape has no derivation: forms "
               "arranged that way fall outside the grammar",
               "add a pattern production for the shape (the paper's "
               "§6.4 growth path)"),
        _entry("C004", SEVERITY_INFO,
               "a shape is derivable only through assembly recursion; "
               "its tokens parse as disjoint items",
               "add a pattern-level production so the merger sees one "
               "condition"),
        _entry("C005", SEVERITY_INFO,
               "coverage verdicts are best-effort: the yield enumeration "
               "was truncated",
               "nothing to fix -- treat 'uncovered' for the listed "
               "symbols as unknown"),
        # -- schedule (S001-S003) ------------------------------------------
        _entry("S001", SEVERITY_ERROR,
               "the mandatory d-edges are cyclic; the grammar cannot be "
               "scheduled",
               "break the production cycle or restructure the symbols"),
        _entry("S002", SEVERITY_INFO,
               "an r-edge will be transformed (winner ordered before the "
               "loser's parents)",
               "nothing to fix -- a scheduling cost preview"),
        _entry("S003", SEVERITY_WARNING,
               "an r-edge will be relaxed; pruning falls back to "
               "rollback",
               "restructure so the winner can be scheduled first, or "
               "accept the rollback cost"),
    )
}


def explain(code: str) -> CatalogEntry | None:
    """Look up one code (case-insensitive); ``None`` when unknown."""
    return CATALOG.get(code.upper())
