"""The interned-id parser core: invariants on every enforcement path.

``repro.parser.core`` keeps its bookkeeping in dense interned ids
(``Instance.iid``) -- iid-ordered pools and subtree bitmasks instead of
object sets.  That move must be invisible: this suite pins the
interning invariants the core relies on (dense ids, registration order,
mask/set agreement) with token ids from 0 and with every ``token.id``
shifted by 64, and checks that both and naive evaluation give one
answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.grammar.standard import build_standard_grammar
from repro.parser.parser import BestEffortParser, ParserConfig
from tests.parser.test_kernel_equivalence import (
    _TOKEN_SETS as ZIPF_FORMS,
    _fingerprint,
    shift_ids,
    zipf_soups,
)

_GRAMMAR = build_standard_grammar()

#: A representative mid-size form for the non-hypothesis tests.
_FORM_HTML = """
<form>
  <b>Title</b> <input type=text name=title>
  <b>Author</b> <input type=text name=author>
  <select name=format><option>Any<option>Hardcover</select>
  <input type=radio name=sort value=price> Price
  <input type=radio name=sort value=date> Date
  <input type=submit value=Search>
</form>
"""


def _form_tokens():
    from repro.html.parser import parse_html
    from repro.tokens.tokenizer import FormTokenizer

    document = parse_html(_FORM_HTML)
    return FormTokenizer(document).tokenize(document.forms[0])


def _parse(tokens, **config):
    return BestEffortParser(_GRAMMAR, ParserConfig(**config)).parse(tokens)


# ---------------------------------------------------------------------------
# Interning invariants.
# ---------------------------------------------------------------------------


def _check_interning_invariants(result):
    instances = result.instances
    # Dense: iid is the index into the per-parse intern table.
    assert [inst.iid for inst in instances] == list(range(len(instances)))
    # Intern order is registration order is uid order, the property that
    # lets every uid comparison in the old parser become an iid one.
    uids = [inst.uid for inst in instances]
    assert uids == sorted(uids)
    # The subtree bitmask agrees with the subtree itself, node for node.
    for inst in instances:
        subtree = {node.iid for node in inst.descendants()}
        mask = inst.descendant_iid_mask()
        decoded = {i for i in range(mask.bit_length()) if (mask >> i) & 1}
        assert decoded == subtree
        # Self is always a descendant; the mask is never empty.
        assert (mask >> inst.iid) & 1


def _check_descendant_masks(result):
    """Every registered instance's descendant-iid mask is the set of iids
    in its subtree, however it was built: as the parse left it, by the
    stack walk (parents first, so no child is cached yet), and by one
    ``|=`` per child (children first, so every child is cached)."""
    instances = result.instances
    subtrees = []
    for inst in instances:
        mask = 0
        for node in inst.descendants():
            mask |= 1 << node.iid
        subtrees.append(mask)
    assert [inst.descendant_iid_mask() for inst in instances] == subtrees
    for order in (instances[::-1], instances):
        for inst in instances:
            inst._descendant_iid_mask = None
        for inst in order:
            inst.descendant_iid_mask()
        assert [inst._descendant_iid_mask for inst in instances] == subtrees


def test_descendant_masks_on_zipf_forms():
    for _, tokens in ZIPF_FORMS:
        _check_descendant_masks(_parse(tokens))


def test_interning_invariants_on_form():
    _check_interning_invariants(_parse(_form_tokens()))


def test_interning_is_per_parse():
    """Two parses each get dense ids from zero -- no global drift."""
    tokens = _form_tokens()
    first = _parse(tokens)
    second = _parse(tokens)
    assert first.instances[0].iid == 0
    assert second.instances[0].iid == 0
    assert len(first.instances) == len(second.instances)
    # uids, by contrast, are globally monotonic.
    assert second.instances[0].uid > first.instances[0].uid


def test_intern_table_rejects_double_interning():
    from repro.grammar.instance import Instance, InternTable
    from repro.layout.box import BBox

    table = InternTable()
    inst = Instance("x", BBox(0, 1, 0, 1), coverage=frozenset({0}))
    assert table.add(inst) == 0
    with pytest.raises(AssertionError):
        table.add(inst)


def test_equivalence_net_on_form():
    """naive / ids from 0 / ids past 63: one answer.

    The two semi-naive parses agree in full; naive agrees structurally
    (it enumerates differently, so its counters drift).
    """
    tokens = _form_tokens()
    baseline = _fingerprint(_parse(tokens))
    assert _fingerprint(_parse(shift_ids(tokens))) == baseline
    naive = _fingerprint(_parse(tokens, evaluation="naive"))
    for key in ("trees", "creation_order", "conditions", "truncated"):
        assert naive[key] == baseline[key]


class TestInterningProperties:
    @given(zipf_soups())
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_on_random_soups(self, tokens):
        _check_interning_invariants(_parse(tokens))

    @given(zipf_soups())
    @settings(max_examples=40, deadline=None)
    def test_descendant_masks_on_random_soups(self, tokens):
        _check_descendant_masks(_parse(tokens))

    @given(zipf_soups())
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_under_multiword_masks(self, tokens):
        _check_interning_invariants(_parse(shift_ids(tokens)))

    @given(zipf_soups())
    @settings(max_examples=10, deadline=None)
    def test_invariants_hold_on_shipped_grammars(self, tokens):
        """Every shipped grammar, not just the standard one, interns
        densely in registration order."""
        from repro.apps.navmenu import build_menu_grammar
        from repro.grammar.example_g import build_example_grammar

        for grammar in (build_example_grammar(), build_menu_grammar()):
            _check_interning_invariants(
                BestEffortParser(grammar).parse(tokens)
            )
