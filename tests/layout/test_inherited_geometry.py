"""Container boxes and inherited fragment context match their definitions.

The layout engine folds every container's box out of its children's in
one pass, and passes each text fragment's container, link and label
context down the inline flow instead of walking the fragment's
ancestors.  Both are checked here against the definitions they replace,
kept in this file as references: the union of the laid-out boxes over
each box-less element's whole subtree, visited in document order, and
one ancestor walk per fragment.
"""

from __future__ import annotations

import pytest

from repro.datasets.repository import standard_datasets
from repro.html.dom import Element
from repro.html.parser import parse_html
from repro.layout.engine import LayoutEngine, layout_document
from repro.layout.style import Display, display_of


def _reference_container_boxes(root, boxes):
    """The per-subtree union: each box-less element, in document order,
    gets the union of the laid-out boxes in its subtree."""
    assigned = {}
    for element in root.iter_elements():
        if id(element) in boxes:
            continue
        found = [
            boxes[id(descendant)]
            for descendant in element.iter_elements()
            if id(descendant) in boxes
        ]
        if found:
            union = found[0]
            for box in found[1:]:
                union = union.union(box)
            assigned[id(element)] = union
    return assigned


def _reference_context(node):
    """``(container, link_id, label_for)`` of a text node, by walking
    its ancestors."""
    container = None
    link_id = 0
    label_for = None
    ancestor = node.parent
    while isinstance(ancestor, Element):
        if container is None and display_of(ancestor) is not Display.INLINE:
            container = id(ancestor)
        if not link_id and ancestor.tag == "a" and ancestor.has_attribute("href"):
            link_id = id(ancestor)
        if label_for is None and ancestor.tag == "label":
            label_for = ancestor.get("for") or ""
        ancestor = ancestor.parent
    if container is None:
        container = id(ancestor) if ancestor is not None else 0
    return container, link_id, label_for or ""


def _layout_boxes_only(document):
    """The layout before container boxes are assigned."""
    engine = LayoutEngine()
    assign = engine._assign_container_boxes
    engine._assign_container_boxes = lambda root, result: None
    result = engine.layout(document)
    engine._assign_container_boxes = assign
    return result


def _check_page(html):
    document = parse_html(html)
    result = layout_document(document)
    laid_out = dict(_layout_boxes_only(document).element_boxes)
    root = document.body or document
    expected = dict(laid_out)
    expected.update(_reference_container_boxes(root, laid_out))
    # Same boxes, inserted in the same (document) order.
    assert list(result.element_boxes.items()) == list(expected.items())
    for key in expected:
        assert key in result.elements_by_id
    for fragment in result.fragments:
        assert (
            fragment.container, fragment.link_id, fragment.label_for
        ) == _reference_context(fragment.node)
        assert fragment.link == bool(fragment.link_id)


_TYPICAL = [
    source.html
    for dataset in standard_datasets().values()
    for source in dataset
]


def test_every_typical_page_matches_the_references():
    assert len(_TYPICAL) == 252
    for html in _TYPICAL:
        _check_page(html)


@pytest.mark.parametrize(
    "html",
    [
        # The body itself inside a link and a label (malformed markup).
        '<a href="/x"><label for="q"><body>Find <input name=q></body>'
        "</label></a>",
        # Inline content holding blocks, links without href, nested labels.
        "<body><span>Title <div>Author <a>plain</a> "
        '<a href="/y">linked <b>bold</b></a></div></span>'
        '<label for="a">Outer <label>inner</label> tail</label>'
        "<table><tr><td><span><p>cell</p></span></td></tr></table></body>",
        # No body: the document is the layout root.
        "text at the root <i>italic</i>",
        # A box-less container holding only box-less containers.
        "<body><div><span><span></span></span></div>"
        "<form><div><input name=x></div> <em>note</em></form></body>",
    ],
    ids=["body-in-link", "inline-blocks", "no-body", "empty-containers"],
)
def test_edge_pages_match_the_references(html):
    _check_page(html)
