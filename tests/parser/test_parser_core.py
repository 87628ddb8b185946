"""Tests for the best-effort parser core: fix-point, pruning, rollback."""

import dataclasses

from repro.grammar.dsl import GrammarBuilder
from repro.grammar.preference import subsumes
from repro.parser import parser as parser_module
from repro.parser.core import ParseCore
from repro.parser.parser import (
    BestEffortParser,
    ExhaustiveParser,
    ParserConfig,
    ParseStats,
)
from repro.spatial import left_of
from tests.conftest import make_token


def row_tokens(*terminals, start_x=0.0, gap=5.0, width=40.0):
    """Tokens laid out left to right on one line."""
    tokens = []
    x = start_x
    for index, terminal in enumerate(terminals):
        tokens.append(make_token(index, terminal, x, 0.0, width=width))
        x += width + gap
    return tokens


def list_grammar():
    """A minimal recursive-list grammar (the RBList shape)."""
    g = GrammarBuilder(start="S")
    g.terminals("radiobutton", "text")
    g.production(
        "U", ["radiobutton", "text"],
        constraint=lambda rb, tx: left_of(rb.bbox, tx.bbox),
        name="unit",
    )
    g.production("L", ["U"], name="seed")
    g.production(
        "L", ["L", "U"],
        constraint=lambda lst, unit: left_of(lst.bbox, unit.bbox),
        name="extend",
    )
    g.production("S", ["L"], name="top")
    return g


class TestFixpoint:
    def test_recursive_list_builds_full_chain(self):
        grammar = list_grammar().build()
        tokens = row_tokens(
            "radiobutton", "text", "radiobutton", "text",
            "radiobutton", "text",
        )
        result = BestEffortParser(grammar).parse(tokens)
        lists = [i for i in result.instances if i.symbol == "L"]
        assert any(len(lst.coverage) == 6 for lst in lists)

    def test_no_duplicate_instances(self):
        grammar = list_grammar().build()
        tokens = row_tokens("radiobutton", "text")
        result = BestEffortParser(grammar).parse(tokens)
        keys = [
            (i.production.name, tuple(c.uid for c in i.children))
            for i in result.instances
            if i.production is not None
        ]
        assert len(keys) == len(set(keys))

    def test_empty_input(self):
        grammar = list_grammar().build()
        result = BestEffortParser(grammar).parse([])
        assert result.trees == []
        assert result.stats.instances_created == 0

    def test_uncovered_tokens_reported(self):
        grammar = list_grammar().build()
        tokens = row_tokens("text")  # a text with no radio: only noise
        result = BestEffortParser(grammar).parse(tokens)
        assert [t.id for t in result.uncovered_tokens] == [0]


class TestJustInTimePruning:
    def grammar_with_preference(self):
        g = list_grammar()
        g.prefer("L", over="L", when=subsumes, name="longer-wins")
        return g.build()

    def test_sublists_pruned(self):
        grammar = self.grammar_with_preference()
        tokens = row_tokens(
            "radiobutton", "text", "radiobutton", "text",
            "radiobutton", "text",
        )
        result = BestEffortParser(grammar).parse(tokens)
        alive_lists = [
            i for i in result.instances if i.symbol == "L" and i.alive
        ]
        # Only the full chain [and its derivation spine] survives; the
        # spine's members are components, not conflicts.
        top = max(alive_lists, key=lambda i: len(i.coverage))
        assert len(top.coverage) == 6
        for lst in alive_lists:
            assert not top.conflicts_with(lst)

    def test_preference_statistics_recorded(self):
        grammar = self.grammar_with_preference()
        tokens = row_tokens(
            "radiobutton", "text", "radiobutton", "text",
        )
        result = BestEffortParser(grammar).parse(tokens)
        assert result.stats.preference_applications > 0
        assert result.stats.instances_pruned > 0

    def test_rollback_kills_ancestors(self, monkeypatch):
        # Parent links live in the parse's core: keep a handle on it.
        cores = []

        def recording_core(*args, **kwargs):
            core = ParseCore(*args, **kwargs)
            cores.append(core)
            return core

        monkeypatch.setattr(parser_module, "ParseCore", recording_core)
        parser = BestEffortParser(self.grammar_with_preference())
        # Two units: pruning only.  Three units: rollback kills too.
        for units in (2, 3):
            tokens = row_tokens(*(["radiobutton", "text"] * units))
            result = parser.parse(tokens)
            core = cores.pop()
            assert core.all_instances is result.instances
            assert (result.stats.rollback_kills > 0) == (units == 3)
            for instance in result.instances:
                if not instance.alive:
                    # No live instance may sit above a dead one.
                    for parent in core.parents[instance.iid]:
                        assert not parent.alive

    def test_terminals_never_killed(self):
        grammar = self.grammar_with_preference()
        tokens = row_tokens(
            "radiobutton", "text", "radiobutton", "text",
        )
        result = BestEffortParser(grammar).parse(tokens)
        for instance in result.instances:
            if instance.is_terminal:
                assert instance.alive

    def test_preferences_disabled_keeps_everything(self):
        grammar = self.grammar_with_preference()
        tokens = row_tokens(
            "radiobutton", "text", "radiobutton", "text",
        )
        result = ExhaustiveParser(grammar).parse(tokens)
        assert result.stats.instances_pruned == 0
        assert all(i.alive for i in result.instances)


class TestBudget:
    def test_budget_truncates_gracefully(self):
        grammar = list_grammar().build()
        tokens = row_tokens(*(["radiobutton", "text"] * 6))
        config = ParserConfig(max_instances=10)
        result = BestEffortParser(grammar, config).parse(tokens)
        assert result.stats.truncated
        # Still returns whatever trees were built.
        assert isinstance(result.trees, list)

    def test_unbounded_run_not_truncated(self):
        grammar = list_grammar().build()
        tokens = row_tokens("radiobutton", "text")
        result = BestEffortParser(grammar).parse(tokens)
        assert not result.stats.truncated


class TestResultAccounting:
    def test_alive_count_consistent(self):
        g = list_grammar()
        g.prefer("L", over="L", when=subsumes)
        grammar = g.build()
        tokens = row_tokens(
            "radiobutton", "text", "radiobutton", "text",
            "radiobutton", "text",
        )
        result = BestEffortParser(grammar).parse(tokens)
        alive = sum(
            1 for i in result.instances if i.alive and not i.is_terminal
        )
        assert alive == result.stats.instances_alive

    def test_counters_cover_every_field_but_timings(self):
        """``counters()`` feeds the ``parse.construct`` span and its
        metrics; every ParseStats field except the wall-clock timings
        must reach it, flags as 0/1."""
        g = list_grammar()
        g.prefer("L", over="L", when=subsumes)
        result = BestEffortParser(g.build()).parse(
            row_tokens("radiobutton", "text", "radiobutton", "text")
        )
        stats = result.stats
        fields = {spec.name for spec in dataclasses.fields(ParseStats)}
        timings = {name for name in fields if name.endswith("_seconds")}
        assert timings == {
            "elapsed_seconds", "construction_seconds", "maximization_seconds",
        }
        counters = stats.counters()
        assert set(counters) == fields - timings
        for name, value in counters.items():
            assert type(value) is int, name
            assert value == int(getattr(stats, name)), name

    def test_elapsed_time_positive(self):
        grammar = list_grammar().build()
        result = BestEffortParser(grammar).parse(row_tokens("text"))
        assert result.stats.elapsed_seconds >= 0

    def test_complete_parse_detection(self):
        grammar = list_grammar().build()
        tokens = row_tokens("radiobutton", "text")
        result = BestEffortParser(grammar).parse(tokens)
        assert result.is_complete
        assert len(result.complete_parses("S")) >= 1

    def test_temporary_instances_subset(self):
        grammar = list_grammar().build()
        tokens = row_tokens(
            "radiobutton", "text", "radiobutton", "text",
        )
        result = ExhaustiveParser(grammar).parse(tokens)
        temporary = result.temporary_instances()
        uids = {i.uid for i in result.instances}
        assert all(t.uid in uids for t in temporary)
