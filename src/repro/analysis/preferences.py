"""Preference pass: arbitration rules that cannot do what they say.

====  ========  ==============================================================
code  severity  finding
====  ========  ==============================================================
P001  error     preference references an undeclared symbol
P002  warning   preference can never fire (neither symbol is ever
                instantiated by a scheduled fix-point)
P003  warning   trivial self-preference (``A > A`` with the always-true
                condition and criteria) -- every conflicting pair
                invalidates itself both ways
P004  warning   mutually-contradictory trivial pair (``A > B`` and
                ``B > A``, both unconditional)
P005  warning   preference shadowed by an earlier unconditional
                preference on the same symbol pair
P006  warning   duplicate preference name
P007  error     condition or criteria is not a binary predicate
P014  warning   a recursive head whose every preference is a
                self-``subsumes`` rule is not a chain symbol, so the
                parser builds every stack before the rule runs
====  ========  ==============================================================

"Trivial" means both the condition and the criteria are the shared
:func:`repro.grammar.preference.always` sentinel (identity check -- a
user-written always-true lambda is *not* assumed trivial, because the
analyzer cannot prove it).

The firing model behind P002 mirrors the parser: preferences are enforced
at the end of each *scheduled* symbol's fix-point
(``grammar.preferences_involving(symbol)``), and the schedule contains
production heads only.  A preference whose two symbols are both terminals
(or headless nonterminals) is therefore dead weight.

P014 reads the parser's own rule
(:func:`repro.parser.schedule.self_subsuming_heads`): a self-subsuming
head is pruned during construction only when it is a chain symbol (seeds
``X -> Y``, steps ``X -> X Y``, criterion-free rules).  Answers do not
change, only how much is built before the rule runs.
"""

from __future__ import annotations

from repro.analysis.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
)
from repro.analysis.productions import _arity_problem
from repro.analysis.view import GrammarView
from repro.grammar.preference import Preference, always
from repro.parser.schedule import self_subsuming_heads


def is_trivial(preference: Preference) -> bool:
    """Unconditional preference: always applies, winner always wins."""
    return preference.condition is always and preference.criteria is always


def check_preferences(view: GrammarView) -> list[Diagnostic]:
    """Run the preference pass."""
    diagnostics: list[Diagnostic] = []
    alphabet = view.alphabet
    heads = {production.head for production in view.productions}

    trivial_pairs_seen: dict[tuple[str, str], str] = {}
    name_counts: dict[str, int] = {}

    for preference in view.preferences:
        pair = (preference.winner_symbol, preference.loser_symbol)
        name_counts[preference.name] = name_counts.get(preference.name, 0) + 1

        # P001: undeclared symbols.
        for role, symbol in (
            ("winner", preference.winner_symbol),
            ("loser", preference.loser_symbol),
        ):
            if symbol not in alphabet:
                diagnostics.append(
                    Diagnostic(
                        code="P001",
                        severity=SEVERITY_ERROR,
                        message=(
                            f"preference {preference.name} names "
                            f"undeclared symbol {symbol!r} as its {role}"
                        ),
                        symbol=symbol,
                        preference=preference.name,
                        data={"role": role},
                    )
                )

        # P002: never enforced.  Enforcement runs at the end of each
        # scheduled head's fix-point, so a preference fires only if at
        # least one of its symbols is a production head.
        involved_heads = [s for s in pair if s in heads]
        declared = [s for s in pair if s in alphabet]
        if not involved_heads and len(declared) == len(pair):
            diagnostics.append(
                Diagnostic(
                    code="P002",
                    severity=SEVERITY_WARNING,
                    message=(
                        f"preference {preference.name} can never fire: "
                        f"neither {pair[0]!r} nor {pair[1]!r} heads a "
                        "production, and preferences are only enforced "
                        "when a scheduled head finishes instantiating"
                    ),
                    preference=preference.name,
                )
            )

        # P003: trivial self-preference.
        if pair[0] == pair[1] and is_trivial(preference):
            diagnostics.append(
                Diagnostic(
                    code="P003",
                    severity=SEVERITY_WARNING,
                    message=(
                        f"preference {preference.name} prefers "
                        f"{pair[0]!r} over itself unconditionally; every "
                        "conflicting pair of instances invalidates both "
                        "members (self-preferences need a non-trivial "
                        "criterion such as subsumption)"
                    ),
                    symbol=pair[0],
                    preference=preference.name,
                )
            )

        # P004: unconditional A > B after an unconditional B > A.
        reverse = (pair[1], pair[0])
        if (
            pair[0] != pair[1]
            and is_trivial(preference)
            and reverse in trivial_pairs_seen
        ):
            diagnostics.append(
                Diagnostic(
                    code="P004",
                    severity=SEVERITY_WARNING,
                    message=(
                        f"preference {preference.name} unconditionally "
                        f"prefers {pair[0]!r} over {pair[1]!r}, but "
                        f"{trivial_pairs_seen[reverse]} unconditionally "
                        "prefers the reverse; conflicting instances "
                        "invalidate each other both ways"
                    ),
                    preference=preference.name,
                    data={"contradicts": trivial_pairs_seen[reverse]},
                )
            )

        # P005: anything after an unconditional preference on the same
        # pair is shadowed -- the earlier rule already invalidates every
        # conflicting loser.
        if pair in trivial_pairs_seen:
            diagnostics.append(
                Diagnostic(
                    code="P005",
                    severity=SEVERITY_WARNING,
                    message=(
                        f"preference {preference.name} is shadowed: "
                        f"{trivial_pairs_seen[pair]} already prefers "
                        f"{pair[0]!r} over {pair[1]!r} unconditionally, "
                        "so this rule never changes the outcome"
                    ),
                    preference=preference.name,
                    data={"shadowed_by": trivial_pairs_seen[pair]},
                )
            )
        elif is_trivial(preference):
            trivial_pairs_seen[pair] = preference.name

        # P007: predicates that cannot take (winner, loser).
        for role, predicate in (
            ("condition", preference.condition),
            ("criteria", preference.criteria),
        ):
            reason = _arity_problem(predicate, 2)
            if reason is not None:
                diagnostics.append(
                    Diagnostic(
                        code="P007",
                        severity=SEVERITY_ERROR,
                        message=(
                            f"preference {preference.name}: {role} is not "
                            f"a binary predicate -- it {reason}; every "
                            "enforcement would raise TypeError"
                        ),
                        preference=preference.name,
                        data={"role": role},
                    )
                )

    # P006: duplicate preference names.
    for name in sorted(n for n, count in name_counts.items() if count > 1):
        diagnostics.append(
            Diagnostic(
                code="P006",
                severity=SEVERITY_WARNING,
                message=(
                    f"preference name {name!r} is declared "
                    f"{name_counts[name]} times; diagnostics and r-edge "
                    "decisions become ambiguous"
                ),
                preference=name,
                data={"count": name_counts[name]},
            )
        )

    # P014: self-subsuming heads that linear chain assembly cannot prune.
    for symbol, steps in sorted(self_subsuming_heads(view).items()):
        if steps:
            continue
        rules = sorted(
            preference.name for preference in view.preferences
            if preference.winner_symbol == symbol
        )
        diagnostics.append(
            Diagnostic(
                code="P014",
                severity=SEVERITY_WARNING,
                message=(
                    f"{symbol!r} is recursive and only self-subsumes rules "
                    f"({', '.join(rules)}) arbitrate it, but it is not a "
                    f"chain symbol (seeds {symbol} -> Y, steps "
                    f"{symbol} -> {symbol} Y, no winning criteria): the "
                    "parser prunes none of its stacks during construction "
                    "and builds every one before the rules run"
                ),
                symbol=symbol,
                data={"preferences": rules},
            )
        )

    return diagnostics
