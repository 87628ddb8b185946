"""Deterministic HTML layout engine.

Transforms a DOM tree into absolutely-positioned geometry:

* :class:`TextFragment` -- a run of text on a single line, with its box;
* :class:`ControlBox`   -- a form control (input/select/textarea/button);
* per-element bounding boxes for containers such as ``<form>``.

The engine implements the fragment of CSS 2.1 visual formatting that query
forms rely on: block stacking with simple vertical margins, inline flow with
line wrapping and ``<br>``, vertical centering inside line boxes, and table
layout with intrinsic (max-content) column sizing, ``colspan``, cell padding
and cell spacing.  It is deliberately deterministic -- identical input yields
identical coordinates -- because the parser's spatial constraints and the
test suite both assert exact topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.html.dom import Document, Element, Node, Text

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.guard import ResourceGuard
from repro.layout.box import BBox, union_all
from repro.layout.fonts import BOLD_FONT, DEFAULT_FONT, FontMetrics
from repro.layout.style import (
    BLOCK_LEFT_INDENT,
    BLOCK_VERTICAL_MARGIN,
    DEFAULT_CELLPADDING,
    DEFAULT_CELLSPACING,
    Display,
    display_of,
    is_bold_context,
)

#: Width of a collapsed inter-word space, px.
SPACE_WIDTH = 5

#: Default body margin, px (matches classic browser default).
BODY_MARGIN = 8

#: Default viewport width, px.
DEFAULT_VIEWPORT_WIDTH = 960

#: Hard ceiling on layout recursion depth.  Elements nested deeper are
#: laid out as empty leaves -- the engine recurses ~3 Python frames per
#: DOM level (block > table > cell), so an uncapped 10k-deep tree would
#: exhaust the interpreter stack long before producing useful geometry.
MAX_LAYOUT_DEPTH = 150


@dataclass(frozen=True)
class TextFragment:
    """A visually contiguous run of text on one line."""

    text: str
    box: BBox
    node: Text
    bold: bool = False
    #: True when the text renders inside an ``<a href>`` hyperlink --
    #: navigation menus are made of these.
    link: bool = False
    #: Identity of the enclosing anchor element (0 when not a link);
    #: fragments of *different* links must not merge into one token.
    link_id: int = 0
    #: Target of an enclosing ``<label for="...">``, or "" -- explicit DOM
    #: evidence associating the text with a named control.
    label_for: str = ""
    #: Identity of the nearest non-inline ancestor; fragments are merged
    #: into one token only within the same container.
    container: int = 0


@dataclass(frozen=True)
class ControlBox:
    """A rendered form control and its bounding box."""

    element: Element
    box: BBox


@dataclass
class LayoutResult:
    """Everything the tokenizer needs from a rendered page."""

    fragments: list[TextFragment] = field(default_factory=list)
    controls: list[ControlBox] = field(default_factory=list)
    element_boxes: dict[int, BBox] = field(default_factory=dict)
    elements_by_id: dict[int, Element] = field(default_factory=dict)
    viewport_width: int = DEFAULT_VIEWPORT_WIDTH
    height: float = 0.0
    #: True when layout stopped early or skipped content (budget breach).
    truncated: bool = False

    def box_of(self, element: Element) -> BBox | None:
        """Bounding box assigned to *element*, if it produced geometry."""
        return self.element_boxes.get(id(element))


# ---------------------------------------------------------------------------
# Intrinsic sizes of form controls
# ---------------------------------------------------------------------------

_TEXT_INPUT_TYPES = frozenset({"text", "password", "search", "email", "tel", "url", ""})
_BUTTON_INPUT_TYPES = frozenset({"submit", "reset", "button"})


def _int_attr(element: Element, name: str, default: int) -> int:
    raw = element.get(name)
    if raw is None:
        return default
    try:
        return max(0, int(str(raw).strip().rstrip("px")))
    except ValueError:
        return default


def control_size(element: Element, font: FontMetrics = DEFAULT_FONT) -> tuple[float, float]:
    """Intrinsic ``(width, height)`` of a form control, in pixels."""
    tag = element.tag
    if tag == "input":
        input_type = (element.get("type") or "text").lower()
        if input_type in _TEXT_INPUT_TYPES:
            size = _int_attr(element, "size", 20)
            return (size * 7 + 8, 22.0)
        if input_type in ("radio", "checkbox"):
            return (13.0, 13.0)
        if input_type in _BUTTON_INPUT_TYPES:
            label = element.get("value") or input_type.capitalize()
            return (font.text_width(label) + 24, 24.0)
        if input_type == "image":
            return (
                float(_int_attr(element, "width", 60)),
                float(_int_attr(element, "height", 22)),
            )
        if input_type == "file":
            return (210.0, 22.0)
        # Unknown input types render like text boxes.
        return (148.0, 22.0)
    if tag == "select":
        options = [
            option.text_content().strip() for option in element.find_all("option")
        ]
        longest = max((font.text_width(text) for text in options), default=30.0)
        width = longest + 24  # room for the drop-down arrow
        size = _int_attr(element, "size", 1)
        if size > 1:
            visible = min(size, max(1, len(options)))
            return (width, visible * font.line_height + 4)
        return (width, 22.0)
    if tag == "textarea":
        cols = _int_attr(element, "cols", 20)
        rows = _int_attr(element, "rows", 2)
        return (cols * 7 + 8, rows * font.line_height + 6)
    if tag == "button":
        label = element.text_content().strip() or "Button"
        return (font.text_width(label) + 24, 24.0)
    if tag == "img":
        return (
            float(_int_attr(element, "width", 24)),
            float(_int_attr(element, "height", 24)),
        )
    return (0.0, 0.0)


def _enclosing_link_and_label(node: Node) -> tuple[int, str]:
    """The nearest ``<a href>`` (its identity, or 0) and ``<label>`` (its
    ``for`` target, or "") among the ancestors of *node*."""
    link_id = 0
    label_for: str | None = None
    for ancestor in node.ancestors():
        if not isinstance(ancestor, Element):
            break
        if not link_id and ancestor.tag == "a" and ancestor.has_attribute("href"):
            link_id = id(ancestor)
        elif label_for is None and ancestor.tag == "label":
            label_for = ancestor.get("for") or ""
    return link_id, label_for or ""


def is_control(element: Element) -> bool:
    """True for elements that render as atomic form controls."""
    if element.tag in ("select", "textarea", "button"):
        return True
    if element.tag == "input":
        return (element.get("type") or "text").lower() != "hidden"
    return False


# ---------------------------------------------------------------------------
# Inline flow
# ---------------------------------------------------------------------------


@dataclass
class _LineItem:
    kind: str  # "text" | "control" | "img"
    width: float
    height: float
    x: float  # relative to line start
    text: str = ""
    node: Text | None = None
    element: Element | None = None
    bold: bool = False
    link_id: int = 0
    label_for: str = ""
    container: int = 0


class _InlineFlow:
    """Lays out a run of inline content with wrapping.

    Items accumulate into the current line; on flush, the line height is the
    tallest item's height and each item is vertically centered.
    """

    def __init__(
        self,
        result: LayoutResult,
        x: float,
        y: float,
        width: float,
        font: FontMetrics,
    ):
        self._result = result
        self._left = x
        self._width = max(width, 1.0)
        self._y = y
        self._font = font
        self._items: list[_LineItem] = []
        self._cursor = 0.0
        self._pending_space = False
        self._produced = False

    # -- adding content -------------------------------------------------------

    def add_text(
        self,
        node: Text,
        bold: bool,
        container: int,
        link_id: int = 0,
        label_for: str = "",
    ) -> None:
        font = BOLD_FONT if bold else self._font
        data = node.data
        index = 0
        length = len(data)
        while index < length:
            if data[index].isspace():
                self._pending_space = True
                index += 1
                continue
            end = index
            while end < length and not data[end].isspace():
                end += 1
            self._add_word(data[index:end], node, bold, font, container,
                           link_id, label_for)
            index = end

    def _add_word(
        self,
        word: str,
        node: Text,
        bold: bool,
        font: FontMetrics,
        container: int,
        link_id: int = 0,
        label_for: str = "",
    ) -> None:
        word_width = font.text_width(word)
        space = SPACE_WIDTH if (self._pending_space and self._items) else 0.0
        if (
            self._items
            and self._cursor + space + word_width > self._width
            and word_width <= self._width
        ):
            self.flush_line()
            space = 0.0
        last = self._items[-1] if self._items else None
        if (
            last is not None
            and last.kind == "text"
            and last.node is node
            and last.bold == bold
        ):
            joiner = " " if self._pending_space else ""
            last.text += joiner + word
            joiner_width = SPACE_WIDTH if joiner else 0.0
            last.width += joiner_width + word_width
            self._cursor += joiner_width + word_width
        else:
            self._items.append(
                _LineItem(
                    kind="text",
                    width=word_width,
                    height=float(font.line_height),
                    x=self._cursor + space,
                    text=word,
                    node=node,
                    bold=bold,
                    link_id=link_id,
                    label_for=label_for,
                    container=container,
                )
            )
            self._cursor += space + word_width
        self._pending_space = False

    def add_atom(self, element: Element, width: float, height: float) -> None:
        space = SPACE_WIDTH if (self._pending_space and self._items) else 0.0
        if self._items and self._cursor + space + width > self._width:
            self.flush_line()
            space = 0.0
        kind = "control" if is_control(element) else "img"
        self._items.append(
            _LineItem(
                kind=kind,
                width=width,
                height=height,
                x=self._cursor + space,
                element=element,
            )
        )
        self._cursor += space + width
        self._pending_space = False

    def line_break(self) -> None:
        """Explicit ``<br>``: end the line even if it is empty."""
        if self._items:
            self.flush_line()
        else:
            self._y += self._font.line_height
            self._produced = True
        self._pending_space = False

    # -- emitting geometry -------------------------------------------------------

    def flush_line(self) -> None:
        if not self._items:
            return
        line_height = max(item.height for item in self._items)
        line_height = max(line_height, float(self._font.line_height))
        top = self._y
        for item in self._items:
            item_top = top + (line_height - item.height) / 2.0
            box = BBox(
                self._left + item.x,
                self._left + item.x + item.width,
                item_top,
                item_top + item.height,
            )
            if item.kind == "text":
                assert item.node is not None
                self._result.fragments.append(
                    TextFragment(
                        text=item.text,
                        box=box,
                        node=item.node,
                        bold=item.bold,
                        link=item.link_id != 0,
                        link_id=item.link_id,
                        label_for=item.label_for,
                        container=item.container,
                    )
                )
            else:
                assert item.element is not None
                if item.kind == "control":
                    self._result.controls.append(ControlBox(item.element, box))
                self._result.element_boxes[id(item.element)] = box
                self._result.elements_by_id[id(item.element)] = item.element
        self._y = top + line_height
        self._items = []
        self._cursor = 0.0
        self._produced = True

    def finish(self) -> float:
        """Flush remaining content and return the y just below the run."""
        self.flush_line()
        return self._y

    @property
    def produced(self) -> bool:
        return self._produced


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class LayoutEngine:
    """Renders a DOM tree into a :class:`LayoutResult`."""

    def __init__(
        self,
        viewport_width: int = DEFAULT_VIEWPORT_WIDTH,
        font: FontMetrics = DEFAULT_FONT,
        max_depth: int = MAX_LAYOUT_DEPTH,
    ):
        self.viewport_width = viewport_width
        self.font = font
        self.max_depth = max_depth
        self._depth_cap = max_depth
        self._guard: ResourceGuard | None = None
        self._stopped = False
        self._root_link_id = 0
        self._root_label_for = ""

    # -- public API -------------------------------------------------------------

    def layout(
        self, document: Document, guard: ResourceGuard | None = None
    ) -> LayoutResult:
        """Lay out *document* and return all geometry.

        With a *guard*, the engine checks the wall-clock deadline at
        element boundaries and stops producing geometry once it passes
        (``result.truncated`` is set); elements nested beyond the depth
        cap are laid out as empty leaves either way.
        """
        self._guard = guard
        self._stopped = False
        depth_cap = self.max_depth
        if guard is not None and guard.limits.max_depth is not None:
            depth_cap = min(depth_cap, guard.limits.max_depth)
        self._depth_cap = depth_cap
        result = LayoutResult(viewport_width=self.viewport_width)
        root: Node = document.body or document
        # Malformed markup can put the body inside a link or a label.
        self._root_link_id, self._root_label_for = _enclosing_link_and_label(
            root
        )
        content_width = self.viewport_width - 2 * BODY_MARGIN
        bottom = self._layout_block_children(
            root, BODY_MARGIN, BODY_MARGIN, content_width, result, bold=False,
            depth=0,
        )
        result.height = bottom
        self._assign_container_boxes(root, result)
        if self._stopped:
            result.truncated = True
        return result

    def _over_depth(self, depth: int, result: LayoutResult) -> bool:
        if depth <= self._depth_cap:
            return False
        result.truncated = True
        if self._guard is not None:
            self._guard.admit_depth(depth, "layout")
        return True

    def _deadline_hit(self) -> bool:
        if self._stopped:
            return True
        if self._guard is not None and self._guard.tick("layout", stride=128):
            self._stopped = True
            return True
        return False

    # -- block formatting ---------------------------------------------------------

    def _layout_block_children(
        self,
        node: Node,
        x: float,
        y: float,
        width: float,
        result: LayoutResult,
        bold: bool,
        depth: int = 0,
    ) -> float:
        """Lay out *node*'s children in a block context; return the new y."""
        if self._over_depth(depth, result):
            return y
        inline_buffer: list[tuple[Node, bool]] = []

        def flush_inline(cursor_y: float) -> float:
            nonlocal inline_buffer
            if not inline_buffer:
                return cursor_y
            flow = _InlineFlow(result, x, cursor_y, width, self.font)
            # *node* is the document or a non-inline element, and so is
            # each of its ancestors up to the layout root (inline content
            # is flowed, never block-laid-out), so only an ``<a>`` or
            # ``<label>`` around the root itself can enclose it.
            for item, item_bold in inline_buffer:
                self._flow_inline(
                    item, flow, item_bold, result, depth + 1, id(node),
                    self._root_link_id, self._root_label_for,
                )
            inline_buffer = []
            return flow.finish()

        for child in node.children:
            if self._deadline_hit():
                break
            if isinstance(child, Text):
                if child.data.strip():
                    inline_buffer.append((child, bold))
                elif inline_buffer:
                    inline_buffer.append((child, bold))
                continue
            if not isinstance(child, Element):
                continue
            display = display_of(child)
            if display is Display.NONE:
                continue
            if display is Display.INLINE:
                inline_buffer.append((child, bold or is_bold_context(child)))
                continue
            # Block-level child: flush pending inline content first.
            y = flush_inline(y)
            y = self._layout_block_element(
                child, x, y, width, result, bold, depth + 1
            )
        y = flush_inline(y)
        return y

    def _layout_block_element(
        self,
        element: Element,
        x: float,
        y: float,
        width: float,
        result: LayoutResult,
        bold: bool,
        depth: int = 0,
    ) -> float:
        display = display_of(element)
        tag = element.tag
        margin = BLOCK_VERTICAL_MARGIN.get(tag, 0)
        indent = BLOCK_LEFT_INDENT.get(tag, 0)
        y += margin
        top = y
        child_bold = bold or is_bold_context(element)

        if tag == "hr":
            result.element_boxes[id(element)] = BBox(x, x + width, y, y + 2)
            result.elements_by_id[id(element)] = element
            return y + 2 + margin

        if display is Display.TABLE:
            y = self._layout_table(
                element, x + indent, y, width - indent, result, child_bold, depth
            )
        elif display in (Display.TABLE_ROW, Display.TABLE_CELL, Display.TABLE_ROW_GROUP):
            # Malformed table parts outside a table: treat as plain blocks.
            y = self._layout_block_children(
                element, x + indent, y, width - indent, result, child_bold, depth
            )
        elif display is Display.LIST_ITEM:
            y = self._layout_block_children(
                element, x + 16, y, width - 16, result, child_bold, depth
            )
        else:
            y = self._layout_block_children(
                element, x + indent, y, width - indent, result, child_bold, depth
            )

        if y > top:
            result.element_boxes[id(element)] = BBox(x, x + width, top, y)
            result.elements_by_id[id(element)] = element
        return y + margin

    def _flow_inline(
        self,
        node: Node,
        flow: _InlineFlow,
        bold: bool,
        result: LayoutResult,
        depth: int,
        container: int,
        link_id: int,
        label_for: str,
    ) -> None:
        """Feed an inline-level node (and descendants) into the line flow.

        What a text fragment inherits from its ancestors is passed down
        as *bold* is: *container*, the identity of the nearest
        non-inline ancestor (the merge boundary); *link_id*, that of the
        enclosing ``<a href>`` (0 outside links); and *label_for*, the
        ``for`` target of the enclosing ``<label>`` ("" outside one).
        """
        if self._over_depth(depth, result):
            return
        if isinstance(node, Text):
            flow.add_text(node, bold, container, link_id, label_for)
            return
        if not isinstance(node, Element):
            return
        display = display_of(node)
        if display is Display.NONE:
            return
        if node.tag == "br":
            flow.line_break()
            return
        if is_control(node) or node.tag == "img":
            width, height = control_size(node, self.font)
            flow.add_atom(node, width, height)
            return
        child_bold = bold or is_bold_context(node)
        if display is not Display.INLINE:
            container = id(node)
        if node.tag == "a":
            if node.has_attribute("href"):
                link_id = id(node)
        elif node.tag == "label":
            label_for = node.get("for") or ""
        for child in node.children:
            self._flow_inline(
                child, flow, child_bold, result, depth + 1, container,
                link_id, label_for,
            )

    # -- table formatting -----------------------------------------------------

    def _layout_table(
        self,
        table: Element,
        x: float,
        y: float,
        available_width: float,
        result: LayoutResult,
        bold: bool,
        depth: int = 0,
    ) -> float:
        if self._over_depth(depth, result):
            return y
        rows = self._table_rows(table)
        if not rows:
            return y
        padding = _int_attr(table, "cellpadding", DEFAULT_CELLPADDING)
        spacing = _int_attr(table, "cellspacing", DEFAULT_CELLSPACING)

        column_widths = self._column_widths(
            rows, padding, available_width, spacing, depth
        )
        column_count = len(column_widths)
        positioned = self._grid_positions(rows)
        top = y
        y += spacing
        for placed in positioned:
            if self._deadline_hit():
                break
            row_top = y
            cell_bottoms: list[float] = []
            for cell, column, span, rowspan in placed:
                if column >= column_count:
                    break
                span = min(span, max(1, column_count - column))
                cell_x = (
                    x + spacing
                    + sum(column_widths[:column]) + column * spacing
                )
                cell_width = (
                    sum(column_widths[column : column + span])
                    + (span - 1) * spacing
                )
                content_x = cell_x + padding
                content_width = max(1.0, cell_width - 2 * padding)
                cell_bold = bold or is_bold_context(cell)
                bottom = self._layout_block_children(
                    cell, content_x, row_top + padding, content_width, result,
                    cell_bold, depth + 1,
                )
                bottom += padding
                if rowspan == 1:
                    cell_bottoms.append(bottom)
                result.element_boxes[id(cell)] = BBox(
                    cell_x, cell_x + cell_width, row_top, bottom
                )
                result.elements_by_id[id(cell)] = cell
            row_height = max(
                (b - row_top for b in cell_bottoms), default=float(self.font.line_height)
            )
            # Re-box single-row cells of the row to the common row height.
            for cell, _column, _span, rowspan in placed:
                box = result.element_boxes.get(id(cell))
                if box is not None and box.top == row_top and rowspan == 1:
                    result.element_boxes[id(cell)] = BBox(
                        box.left, box.right, box.top, row_top + row_height
                    )
            y = row_top + row_height + spacing
        result.element_boxes[id(table)] = BBox(
            x, x + sum(column_widths) + (len(column_widths) + 1) * spacing, top, y
        )
        result.elements_by_id[id(table)] = table
        return y

    @staticmethod
    def _grid_positions(
        rows: list[list[Element]],
    ) -> list[list[tuple[Element, int, int, int]]]:
        """Assign each cell its (column, colspan, rowspan) accounting for
        rowspan blocking from earlier rows."""
        positioned: list[list[tuple[Element, int, int, int]]] = []
        blocked: dict[int, int] = {}
        for row in rows:
            placed: list[tuple[Element, int, int, int]] = []
            column = 0
            for cell in row:
                while blocked.get(column, 0) > 0:
                    column += 1
                span = max(1, _int_attr(cell, "colspan", 1))
                rowspan = max(1, _int_attr(cell, "rowspan", 1))
                placed.append((cell, column, span, rowspan))
                if rowspan > 1:
                    for blocked_column in range(column, column + span):
                        blocked[blocked_column] = rowspan
                column += span
            positioned.append(placed)
            for blocked_column in list(blocked):
                blocked[blocked_column] -= 1
                if blocked[blocked_column] <= 0:
                    del blocked[blocked_column]
        return positioned

    def _table_rows(self, table: Element) -> list[list[Element]]:
        rows: list[list[Element]] = []
        for child in table.child_elements():
            if child.tag == "tr":
                rows.append(self._row_cells(child))
            elif child.tag in ("thead", "tbody", "tfoot"):
                for grandchild in child.child_elements():
                    if grandchild.tag == "tr":
                        rows.append(self._row_cells(grandchild))
        return [row for row in rows if row]

    @staticmethod
    def _row_cells(row: Element) -> list[Element]:
        return [cell for cell in row.child_elements() if cell.tag in ("td", "th")]

    def _column_widths(
        self,
        rows: list[list[Element]],
        padding: int,
        available_width: float,
        spacing: int,
        depth: int = 0,
    ) -> list[float]:
        positioned = self._grid_positions(rows)
        column_count = 0
        for placed in positioned:
            for _cell, column, span, _rowspan in placed:
                column_count = max(column_count, column + span)
        widths = [10.0] * column_count

        # First pass: unspanned cells set base column widths.
        for placed in positioned:
            for cell, column, span, _rowspan in placed:
                if span == 1 and column < column_count:
                    need = self._intrinsic_width(cell, depth + 1) + 2 * padding
                    widths[column] = max(widths[column], need)

        # Second pass: column-spanning cells widen their columns if needed.
        for placed in positioned:
            for cell, column, span, _rowspan in placed:
                if span > 1:
                    upper = min(column + span, column_count)
                    need = self._intrinsic_width(cell, depth + 1) + 2 * padding
                    current = sum(widths[column:upper]) + (upper - column - 1) * spacing
                    if need > current and upper > column:
                        extra = (need - current) / (upper - column)
                        for i in range(column, upper):
                            widths[i] += extra

        total = sum(widths) + (column_count + 1) * spacing
        if total > available_width and total > 0:
            scale = max(0.25, (available_width - (column_count + 1) * spacing) / sum(widths))
            widths = [w * scale for w in widths]
        return widths

    # -- intrinsic (max-content) measurement ------------------------------------

    def _intrinsic_width(self, node: Node, depth: int = 0) -> float:
        """Max-content width of *node* (no wrapping except at ``<br>``)."""
        if depth > self._depth_cap:
            return 0.0
        if isinstance(node, Text):
            lines = node.data.split("\n")
            return max(
                (self.font.text_width(" ".join(line.split())) for line in lines),
                default=0.0,
            )
        if not isinstance(node, Element):
            return 0.0
        display = display_of(node)
        if display is Display.NONE:
            return 0.0
        if is_control(node) or node.tag == "img":
            return control_size(node, self.font)[0]
        if display is Display.TABLE:
            rows = self._table_rows(node)
            padding = _int_attr(node, "cellpadding", DEFAULT_CELLPADDING)
            spacing = _int_attr(node, "cellspacing", DEFAULT_CELLSPACING)
            if not rows:
                return 0.0
            widths = self._column_widths(
                rows, padding, float("inf"), spacing, depth
            )
            return sum(widths) + (len(widths) + 1) * spacing

        # Inline/block container: longest segment between explicit breaks.
        best, current, _ = self._walk_inline(
            node, is_bold_context(node), 1, depth, 0.0, 0.0, False
        )
        return max(best, current)

    def _walk_inline(
        self,
        element: Element,
        bold: bool,
        walk_depth: int,
        depth: int,
        best: float,
        current: float,
        pending_space: bool,
    ) -> tuple[float, float, bool]:
        """Walk *element*'s inline content for :meth:`_intrinsic_width`.

        The line state -- the longest finished segment, the width of the
        open one, and whether a space is pending -- goes in as arguments
        and comes back as ``(best, current, pending_space)``.  A method
        rather than a nested function over ``nonlocal`` state: a nested
        function that calls itself holds itself in a closure cell, one
        reference cycle per measurement.
        """
        if walk_depth > self._depth_cap:
            return best, current, pending_space
        font = BOLD_FONT if bold else self.font
        for child in element.children:
            if isinstance(child, Text):
                words = child.data.split()
                leading_ws = child.data[:1].isspace()
                trailing_ws = child.data[-1:].isspace() if child.data else False
                for index, word in enumerate(words):
                    if (index > 0 or leading_ws or pending_space) and current > 0:
                        current += SPACE_WIDTH
                    current += font.text_width(word)
                    pending_space = False
                if trailing_ws:
                    pending_space = True
                continue
            if not isinstance(child, Element):
                continue
            child_display = display_of(child)
            if child_display is Display.NONE:
                continue
            if child.tag == "br" or child_display not in (Display.INLINE,):
                # Block boundary: measure it independently.
                best = max(best, current)
                current = 0.0
                pending_space = False
                if child.tag != "br":
                    best = max(
                        best,
                        self._intrinsic_width(child, depth + walk_depth + 1),
                    )
                continue
            if is_control(child) or child.tag == "img":
                if pending_space and current > 0:
                    current += SPACE_WIDTH
                    pending_space = False
                current += control_size(child, self.font)[0]
                continue
            best, current, pending_space = self._walk_inline(
                child, bold or is_bold_context(child), walk_depth + 1, depth,
                best, current, pending_space,
            )
        return best, current, pending_space

    # -- container boxes ----------------------------------------------------------

    def _assign_container_boxes(self, root: Node, result: LayoutResult) -> None:
        """Give forms and other containers the union box of their contents.

        Every element without a box of its own gets the union of the
        boxes laid out in its subtree.  One pass in reverse document
        order, which reaches every node after all of its descendants,
        folds each node's subtree union from its children's.  Elements
        are ticked against the guard and queued in document order, so a
        deadline stops at the same element and the boxes enter
        ``element_boxes`` in document order.
        """
        boxes = result.element_boxes
        guard = self._guard
        nodes = list(root.iter())
        pending: list[Element] = []
        for node in nodes:
            if isinstance(node, Element):
                if guard is not None and guard.tick("layout", stride=128):
                    self._stopped = True
                    break
                if id(node) not in boxes:
                    pending.append(node)
        if not pending:
            return
        unions: dict[int, BBox] = {}
        for node in reversed(nodes):
            own = boxes.get(id(node))
            parts = [] if own is None else [own]
            for child in node.children:
                below = unions.get(id(child))
                if below is not None:
                    parts.append(below)
            if parts:
                unions[id(node)] = union_all(parts)
        for element in pending:
            union = unions.get(id(element))
            if union is not None:
                boxes[id(element)] = union
                result.elements_by_id[id(element)] = element


def layout_document(
    document: Document,
    viewport_width: int = DEFAULT_VIEWPORT_WIDTH,
    guard: ResourceGuard | None = None,
) -> LayoutResult:
    """Lay out *document* with the default engine configuration."""
    return LayoutEngine(viewport_width=viewport_width).layout(document, guard=guard)
