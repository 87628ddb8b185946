"""Tests for the DOM node model."""

import gc

from repro.html.dom import Comment, Document, Element, Text
from repro.html.parser import parse_html


def small_tree():
    document = Document()
    html = document.append_child(Element("html"))
    body = html.append_child(Element("body"))
    form = body.append_child(Element("form", {"action": "/search"}))
    label = form.append_child(Element("b"))
    label.append_child(Text("Author"))
    form.append_child(Element("input", {"type": "text", "name": "author"}))
    return document, form


class TestTreeManipulation:
    def test_append_sets_parent(self):
        parent = Element("div")
        child = Element("span")
        parent.append_child(child)
        assert child.parent is parent
        assert parent.children == [child]

    def test_append_reparents(self):
        first = Element("div")
        second = Element("div")
        child = Element("span")
        first.append_child(child)
        second.append_child(child)
        assert child.parent is second
        assert first.children == []

    def test_remove_child(self):
        parent = Element("div")
        child = parent.append_child(Element("span"))
        parent.remove_child(child)
        assert child.parent is None
        assert parent.children == []


class TestOwnership:
    """Children are owned; a node's parent is held weakly."""

    def test_child_outliving_document_has_no_parent(self):
        document, form = small_tree()
        label = form.children[0]
        assert label.parent is form
        del document, form
        # Nothing holds the tree any more: reference counting freed it,
        # and the surviving node reads as detached.
        assert label.parent is None
        assert list(label.ancestors()) == []
        assert label.text_content() == "Author"

    def test_append_across_live_parents_detaches(self):
        first, first_form = small_tree()
        second, _ = small_tree()
        second_body = second.find("body")
        moved = second_body.append_child(first_form)
        assert moved.parent is second_body
        assert first_form not in first.find("body").children
        assert first.find("form") is None
        assert second_body.children.count(first_form) == 1
        tags = [n.tag for n in moved.ancestors() if isinstance(n, Element)]
        assert tags == ["body", "html"]
        assert list(moved.ancestors())[-1] is second

    def test_append_after_old_parent_freed(self):
        document, form = small_tree()
        label = form.children[0]
        del document, form
        target = Element("div")
        target.append_child(label)
        assert label.parent is target
        assert target.children == [label]

    def test_parse_and_drop_leaves_no_cyclic_garbage(self):
        html = (
            "<html><body><form action='/s'><table><tr><td><b>Author</b>"
            "</td><td><input name='a'></td></tr></table>"
            "<select name='x'><option>One<option>Two</select>"
            "</form></body></html>"
        )
        parse_html(html)
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                document = parse_html(html)
                assert document.find("input") is not None
                del document
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTraversal:
    def test_iter_document_order(self):
        document, _ = small_tree()
        tags = [n.tag for n in document.iter_elements()]
        assert tags == ["html", "body", "form", "b", "input"]

    def test_ancestors(self):
        document, form = small_tree()
        label = form.children[0]
        tags = [
            n.tag for n in label.ancestors() if isinstance(n, Element)
        ]
        assert tags == ["form", "body", "html"]

    def test_find(self):
        document, form = small_tree()
        assert document.find("form") is form
        assert document.find("table") is None

    def test_find_all_with_predicate(self):
        document, _ = small_tree()
        inputs = list(
            document.find_all("input", lambda e: e.get("type") == "text")
        )
        assert len(inputs) == 1

    def test_find_excludes_self(self):
        _, form = small_tree()
        assert form.find("form") is None

    def test_text_content(self):
        document, _ = small_tree()
        assert document.text_content() == "Author"


class TestElement:
    def test_tag_lowercased(self):
        assert Element("DIV").tag == "div"

    def test_get_case_insensitive(self):
        element = Element("input", {"name": "q"})
        assert element.get("NAME") == "q"
        assert element.get("missing") is None
        assert element.get("missing", "d") == "d"

    def test_has_attribute(self):
        element = Element("input", {"checked": ""})
        assert element.has_attribute("checked")
        assert not element.has_attribute("selected")

    def test_id_and_name_properties(self):
        element = Element("input", {"id": "x", "name": "y"})
        assert element.id == "x"
        assert element.name == "y"

    def test_child_elements_skips_text(self):
        parent = Element("div")
        parent.append_child(Text("a"))
        span = parent.append_child(Element("span"))
        assert parent.child_elements() == [span]

    def test_own_text(self):
        parent = Element("td")
        parent.append_child(Text("Price"))
        child = parent.append_child(Element("b"))
        child.append_child(Text("hidden"))
        assert parent.own_text() == "Price"


class TestDocument:
    def test_body_property(self):
        document, _ = small_tree()
        assert document.body.tag == "body"

    def test_forms_property(self):
        document, form = small_tree()
        assert document.forms == [form]

    def test_comment_repr(self):
        assert "note" in repr(Comment("note"))

    def test_text_repr_truncates(self):
        assert "..." in repr(Text("x" * 100))
