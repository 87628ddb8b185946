"""Form tokenizer: DOM + layout geometry → token set.

Builds on the HTML DOM and layout substrates the way the original system
built on Internet Explorer's DOM API: it walks the rendered form, emits one
token per form control, and merges text fragments into visually contiguous
text tokens (``<b>Title</b>:`` renders as two fragments but reads as the
single token ``"Title:"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.html.dom import Document, Element, Node

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.guard import ResourceGuard
from repro.html.parser import parse_html
from repro.layout.box import BBox
from repro.layout.engine import (
    ControlBox,
    LayoutResult,
    TextFragment,
    layout_document,
)
from repro.tokens.model import SelectOption, Token

#: Fragments closer than this merge into one text token (a collapsed space
#: renders 5 px wide; table cells are farther apart than this).
_MERGE_GAP = 6.5

#: Text outside the form element is still tokenized when it lies within
#: this distance of the form's rendered content (labels are sometimes
#: written just outside the ``<form>`` tag).
_NEARBY_MARGIN = 24.0

_INPUT_TERMINAL_BY_TYPE: dict[str, str] = {
    "text": "textbox",
    "": "textbox",
    "search": "textbox",
    "email": "textbox",
    "tel": "textbox",
    "url": "textbox",
    "password": "password",
    "radio": "radiobutton",
    "checkbox": "checkbox",
    "submit": "submitbutton",
    "reset": "resetbutton",
    "button": "pushbutton",
    "image": "imagebutton",
    "file": "filebox",
    "hidden": "hiddenfield",
}


class FormTokenizer:
    """Convert one rendered query form into a token set."""

    def __init__(
        self,
        document: Document,
        layout: LayoutResult | None = None,
        guard: ResourceGuard | None = None,
    ):
        self._document = document
        self._guard = guard
        self._layout = (
            layout if layout is not None else layout_document(document, guard=guard)
        )

    # -- public API -----------------------------------------------------------

    @property
    def layout(self) -> LayoutResult:
        return self._layout

    def forms(self) -> list[Element]:
        """All ``<form>`` elements of the document."""
        return self._document.forms

    def tokenize(self, form: Element | None = None) -> list[Token]:
        """Tokenize *form* (or the whole page when ``form`` is ``None``).

        Returns tokens sorted in reading order (top-to-bottom, then
        left-to-right) with dense ids starting at 0.
        """
        scope = None if form is None else _subtree_ids(form)
        controls = [
            control
            for control in self._layout.controls
            if scope is None or id(control.element) in scope
        ]
        scope_box = self._scope_box(controls, scope)
        fragments = [
            fragment
            for fragment in self._layout.fragments
            if self._fragment_in_scope(fragment, scope, scope_box)
        ]

        raw: list[tuple[BBox, str, dict[str, Any]]] = []
        for control in controls:
            terminal, attrs = self._control_token(control.element)
            raw.append((control.box, terminal, attrs))
        for box, text, bold, link, label_for in self._merge_fragments(
            fragments
        ):
            attrs: dict[str, Any] = {"sval": text, "bold": bold, "link": link}
            if label_for:
                attrs["for_field"] = label_for
            raw.append((box, "text", attrs))

        raw.sort(key=lambda item: (item[0].top, item[0].left, item[0].right))
        if self._guard is not None:
            # Token ceiling: keep the reading-order prefix so the parser
            # sees a coherent (if incomplete) top-of-form token set.
            raw = raw[: self._guard.cap_count("tokens", len(raw), "tokenize")]
        return [
            Token(id=index, terminal=terminal, bbox=box, attrs=attrs)
            for index, (box, terminal, attrs) in enumerate(raw)
        ]

    # -- scoping -----------------------------------------------------------------

    def _scope_box(
        self, controls: list[ControlBox], scope: set[int] | None
    ) -> BBox | None:
        boxes = [control.box for control in controls]
        if scope is not None:
            for fragment in self._layout.fragments:
                if id(fragment.node) in scope:
                    boxes.append(fragment.box)
        if not boxes:
            return None
        union = boxes[0]
        for box in boxes[1:]:
            union = union.union(box)
        return union.inflate(_NEARBY_MARGIN)

    def _fragment_in_scope(
        self,
        fragment: TextFragment,
        scope: set[int] | None,
        scope_box: BBox | None,
    ) -> bool:
        """*scope* holds the ids of the form's subtree (None: whole page)."""
        if not fragment.text.strip():
            return False
        if scope is None:
            return True
        if id(fragment.node) in scope:
            return True
        # Nearby text just outside the <form> tag still labels the form.
        return scope_box is not None and scope_box.intersects(fragment.box)

    # -- text merging ---------------------------------------------------------------

    @staticmethod
    def _merge_fragments(
        fragments: list[TextFragment],
    ) -> list[tuple[BBox, str, bool, bool, str]]:
        """Merge adjacent same-line, same-container fragments into tokens."""
        ordered = sorted(
            fragments, key=lambda f: (f.container, f.box.top, f.box.left)
        )
        merged: list[tuple[BBox, str, bool, bool, str]] = []
        current_box: BBox | None = None
        current_text = ""
        current_bold = False
        current_link = False
        current_link_id = 0
        current_label_for = ""
        current_container = 0

        def flush() -> None:
            nonlocal current_box, current_text
            if current_box is not None and current_text.strip():
                merged.append(
                    (current_box, current_text.strip(), current_bold,
                     current_link, current_label_for)
                )
            current_box = None
            current_text = ""

        for fragment in ordered:
            if (
                current_box is not None
                and fragment.container == current_container
                and fragment.link_id == current_link_id
                and current_box.vertical_overlap(fragment.box)
                >= 0.5 * min(current_box.height, fragment.box.height)
                and 0
                <= fragment.box.left - current_box.right
                <= _MERGE_GAP
            ):
                gap = fragment.box.left - current_box.right
                joiner = " " if gap >= 2.5 else ""
                current_text += joiner + fragment.text
                current_box = current_box.union(fragment.box)
                current_bold = current_bold or fragment.bold
                current_link = current_link and fragment.link
                current_label_for = current_label_for or fragment.label_for
            else:
                flush()
                current_box = fragment.box
                current_text = fragment.text
                current_bold = fragment.bold
                current_link = fragment.link
                current_link_id = fragment.link_id
                current_label_for = fragment.label_for
                current_container = fragment.container
        flush()
        return merged

    # -- control conversion ------------------------------------------------------------

    def _control_token(self, element: Element) -> tuple[str, dict[str, Any]]:
        tag = element.tag
        attrs: dict[str, Any] = {}
        if element.get("name"):
            attrs["name"] = element.get("name")
        if element.get("value") is not None:
            attrs["value"] = element.get("value")
        if tag == "input":
            input_type = (element.get("type") or "text").lower()
            terminal = _INPUT_TERMINAL_BY_TYPE.get(input_type, "textbox")
            if input_type in ("radio", "checkbox"):
                attrs["checked"] = element.has_attribute("checked")
            if input_type in ("text", "", "search", "email", "tel", "url", "password"):
                attrs["size"] = element.get("size")
                attrs["maxlength"] = element.get("maxlength")
            return terminal, attrs
        if tag == "select":
            options = tuple(
                SelectOption(
                    label=" ".join(option.text_content().split()),
                    value=option.get("value")
                    or " ".join(option.text_content().split()),
                    selected=option.has_attribute("selected"),
                )
                for option in element.find_all("option")
            )
            attrs["options"] = options
            attrs["multiple"] = element.has_attribute("multiple")
            size_raw = element.get("size")
            try:
                size = int(size_raw) if size_raw else 1
            except ValueError:
                size = 1
            return ("listbox" if size > 1 else "selectlist"), attrs
        if tag == "textarea":
            return "textarea", attrs
        if tag == "button":
            attrs["value"] = " ".join(element.text_content().split())
            button_type = (element.get("type") or "submit").lower()
            return (
                "submitbutton" if button_type == "submit" else "pushbutton"
            ), attrs
        if tag == "img":
            attrs["alt"] = element.get("alt") or ""
            return "image", attrs
        if tag == "hr":
            return "hrule", attrs
        return "image", attrs


def _subtree_ids(root: Node) -> set[int]:
    """The ``id()`` of *root* and of every node below it.

    A control or a text fragment is in a form's scope when its node is
    in this set, so no ancestor walk per control or fragment is needed.
    Visit order does not matter, so this skips ``Node.iter``'s
    document-order bookkeeping.
    """
    ids: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        ids.add(id(node))
        stack.extend(node.children)
    return ids


def tokenize_form(document: Document, form: Element | None = None) -> list[Token]:
    """Tokenize *form* within a parsed *document*."""
    return FormTokenizer(document).tokenize(form)


def tokenize_html(html: str) -> list[Token]:
    """Parse *html*, pick its first form (or the whole page), and tokenize."""
    document = parse_html(html)
    forms = document.forms
    return FormTokenizer(document).tokenize(forms[0] if forms else None)
