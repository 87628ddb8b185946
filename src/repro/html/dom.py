"""DOM node model: documents, elements, text, and comments.

A small, browser-like document object model.  Nodes form a tree; elements
carry lower-cased tag names and attribute dictionaries.  The model offers the
traversal and query helpers the rest of the system needs (``find``,
``find_all``, ``iter``, ``text_content``) without pretending to be a full
W3C DOM.

Ownership runs downwards: a node owns its ``children`` list, while its
``parent`` is held as a weak reference.  A parsed document is therefore
acyclic and freed by reference counting as soon as the last reference to
it goes.  A node kept alive after its document has gone reads
``parent is None``.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterator


class Node:
    """Base class for all DOM nodes."""

    __slots__ = ("_parent", "children", "__weakref__")

    def __init__(self) -> None:
        self._parent: weakref.ref[Node] | None = None
        self.children: list[Node] = []

    @property
    def parent(self) -> "Element | Document | None":
        """The node this one is attached to, or ``None``.

        Stored as a weak reference (see the module docstring), so it
        also reads ``None`` once the parent itself has been freed.
        """
        ref = self._parent
        if ref is None:
            return None
        return ref()  # type: ignore[return-value]

    @parent.setter
    def parent(self, node: "Node | None") -> None:
        self._parent = None if node is None else weakref.ref(node)

    # -- tree manipulation -------------------------------------------------

    def append_child(self, child: "Node") -> "Node":
        """Attach *child* as the last child of this node and return it."""
        # ``parse_html`` calls this once per node: reach the weak
        # reference directly rather than through the ``parent`` property.
        ref = child._parent
        if ref is not None:
            previous = ref()
            if previous is not None:
                previous.children.remove(child)
        child._parent = weakref.ref(self)
        self.children.append(child)
        return child

    def remove_child(self, child: "Node") -> "Node":
        """Detach *child* from this node and return it."""
        self.children.remove(child)
        child.parent = None
        return child

    # -- traversal ---------------------------------------------------------

    def iter(self) -> Iterator["Node"]:
        """Yield this node and all descendants in document order."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_elements(self) -> Iterator["Element"]:
        """Yield descendant elements (including self if it is one)."""
        for node in self.iter():
            if isinstance(node, Element):
                yield node

    def ancestors(self) -> Iterator["Node"]:
        """Yield ancestors from parent up to the root."""
        ref = self._parent
        while ref is not None:
            node = ref()
            if node is None:
                return
            yield node
            ref = node._parent

    # -- queries -----------------------------------------------------------

    def find(
        self, tag: str, predicate: Callable[["Element"], bool] | None = None
    ) -> "Element | None":
        """Return the first descendant element with *tag*, or ``None``."""
        for element in self.find_all(tag, predicate):
            return element
        return None

    def find_all(
        self, tag: str, predicate: Callable[["Element"], bool] | None = None
    ) -> Iterator["Element"]:
        """Yield descendant elements with *tag* satisfying *predicate*."""
        wanted = tag.lower()
        for element in self.iter_elements():
            if element is self:
                continue
            if element.tag == wanted and (predicate is None or predicate(element)):
                yield element

    def text_content(self) -> str:
        """Concatenated text of all descendant text nodes."""
        parts: list[str] = []
        for node in self.iter():
            if isinstance(node, Text):
                parts.append(node.data)
        return "".join(parts)


class Document(Node):
    """The root of a parsed HTML tree."""

    __slots__ = ("doctype", "truncated", "depth_capped")

    def __init__(self) -> None:
        super().__init__()
        self.doctype: str | None = None
        #: True when the builder stopped early (input/node/deadline budget).
        self.truncated: bool = False
        #: True when elements beyond the depth cap were flattened.
        self.depth_capped: bool = False

    def __repr__(self) -> str:
        return f"<Document children={len(self.children)}>"

    @property
    def body(self) -> "Element | None":
        """The ``<body>`` element, if the document has one."""
        return self.find("body")

    @property
    def forms(self) -> list["Element"]:
        """All ``<form>`` elements in document order."""
        return list(self.find_all("form"))


class Element(Node):
    """An HTML element with a tag name and attributes."""

    __slots__ = ("tag", "attributes")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None):
        super().__init__()
        self.tag = tag.lower()
        self.attributes: dict[str, str] = dict(attributes or {})

    def __repr__(self) -> str:
        attrs = " ".join(f'{k}="{v}"' for k, v in self.attributes.items())
        label = f"{self.tag} {attrs}".strip()
        return f"<Element {label}>"

    # -- attribute access ----------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        """Return attribute *name* (case-insensitive) or *default*."""
        return self.attributes.get(name.lower(), default)

    def has_attribute(self, name: str) -> bool:
        """True if the element carries attribute *name*."""
        return name.lower() in self.attributes

    @property
    def id(self) -> str | None:
        return self.get("id")

    @property
    def name(self) -> str | None:
        return self.get("name")

    # -- element-specific helpers ---------------------------------------------

    def child_elements(self) -> list["Element"]:
        """Direct element children, in order."""
        return [child for child in self.children if isinstance(child, Element)]

    def own_text(self) -> str:
        """Text from direct text-node children only (not descendants)."""
        return "".join(
            child.data for child in self.children if isinstance(child, Text)
        )


class Text(Node):
    """A text node."""

    __slots__ = ("data",)

    def __init__(self, data: str):
        super().__init__()
        self.data = data

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"<Text {preview!r}>"


class Comment(Node):
    """A comment node; kept for fidelity but ignored by layout."""

    __slots__ = ("data",)

    def __init__(self, data: str):
        super().__init__()
        self.data = data

    def __repr__(self) -> str:
        return f"<Comment {self.data[:30]!r}>"
