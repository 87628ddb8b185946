"""Seeded-defect tests for P014: self-subsuming heads the parser cannot
assemble linearly."""

from repro.analysis import analyze_grammar
from repro.analysis.view import GrammarView
from repro.grammar.dsl import GrammarBuilder
from repro.grammar.preference import subsumes
from repro.grammar.standard import build_standard_grammar
from repro.grammar.production import Production


def _list_grammar(step):
    """``X`` over ``Y`` rows, recursive through *step*'s components."""
    builder = GrammarBuilder("X", name="rows")
    builder.terminals("textbox")
    builder.production("Y", ["textbox"], name="Y-row")
    builder.production("X", ["Y"], name="X-seed")
    builder.production("X", step, name="X-step")
    builder.prefer("X", over="X", when=subsumes, name="bigger-x")
    return builder.build()


def test_right_recursive_head_is_flagged():
    report = analyze_grammar(_list_grammar(["Y", "X"]))
    (hit,) = report.by_code("P014")
    assert hit.severity == "warning"
    assert hit.symbol == "X"
    assert hit.data == {"preferences": ["bigger-x"]}


def test_left_recursive_chain_is_clean():
    assert not analyze_grammar(_list_grammar(["X", "Y"])).by_code("P014")


def test_a_winning_criterion_takes_the_head_off_the_chain():
    builder = GrammarBuilder("X", name="rows")
    builder.terminals("textbox")
    builder.production("Y", ["textbox"], name="Y-row")
    builder.production("X", ["Y"], name="X-seed")
    builder.production("X", ["X", "Y"], name="X-step")
    builder.prefer(
        "X", over="X", when=subsumes,
        criteria=lambda winner, loser: True, name="bigger-x",
    )
    (hit,) = analyze_grammar(builder.build()).by_code("P014")
    assert hit.symbol == "X"


def test_right_recursive_qi_candidate_is_flagged():
    """An admission candidate adding ``QI -> HQI QI`` turns the standard
    grammar's ``QI`` into a P014 head."""
    grammar = build_standard_grammar()
    view = GrammarView.from_grammar(grammar)
    candidate = Production(head="QI", components=("HQI", "QI"), name="cand-qi")
    widened = GrammarView.from_parts(
        terminals=view.terminals,
        productions=view.productions + (candidate,),
        start=view.start,
        preferences=view.preferences,
        nonterminals=view.nonterminals,
    )
    assert not analyze_grammar(view).by_code("P014")
    assert [hit.symbol for hit in analyze_grammar(widened).by_code("P014")] == [
        "QI"
    ]
