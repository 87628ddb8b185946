"""Per-extraction traces: a list of timed, counted pipeline spans.

A :class:`Trace` records one trip through the Figure-2 pipeline as a flat
sequence of :class:`Span` s, one per stage that ran, in order --
``html-parse``, ``layout``, ``tokenize``, ``cache`` (only with an
extraction cache), ``parse.construct``, ``parse.maximize``, ``merge`` --
each carrying its wall-clock duration, integer counters (instances
created, combos examined, conditions merged, ...), and string/bool tags
(``truncated``, ``depth_capped``).  Traces are plain data: picklable,
JSON-serializable through :meth:`Trace.to_dict`, and cheap enough to
record unconditionally.

The stage sequence is :class:`repro.extractor.FormExtractor`'s;
``docs/OBSERVABILITY.md`` documents the schema.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

@dataclass
class Span:
    """One timed pipeline stage."""

    name: str
    seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    tags: dict[str, object] = field(default_factory=dict)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_dict(self) -> dict:
        payload: dict = {"name": self.name, "seconds": self.seconds}
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.tags:
            payload["tags"] = dict(self.tags)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=payload["name"],
            seconds=payload.get("seconds", 0.0),
            counters=dict(payload.get("counters", {})),
            tags=dict(payload.get("tags", {})),
        )


@dataclass
class Trace:
    """The full trace of one extraction: spans plus an outcome."""

    spans: list[Span] = field(default_factory=list)
    #: ``"ok"`` or ``"error"``; best-effort degradation stays ``"ok"`` but
    #: is tagged (``truncated``, ``form_fallback``) on the relevant span.
    outcome: str = "ok"
    tags: dict[str, object] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time a ``with`` block as span *name*.

        The span is appended even when the block raises, with the outcome
        flipped to ``"error"`` and the exception type tagged -- a crashing
        stage must leave evidence of how far the pipeline got.
        """
        entry = Span(name=name)
        started = time.perf_counter()
        try:
            yield entry
        except BaseException as exc:
            entry.seconds = time.perf_counter() - started
            entry.tags["error"] = type(exc).__name__
            self.outcome = "error"
            self.spans.append(entry)
            raise
        entry.seconds = time.perf_counter() - started
        self.spans.append(entry)

    def add_span(
        self,
        name: str,
        seconds: float,
        counters: dict[str, int] | None = None,
        tags: dict[str, object] | None = None,
    ) -> Span:
        """Append a pre-measured span (for stages timed elsewhere)."""
        entry = Span(
            name=name,
            seconds=seconds,
            counters=dict(counters or {}),
            tags=dict(tags or {}),
        )
        self.spans.append(entry)
        return entry

    def warn(self, message: str) -> None:
        """Record a non-fatal degradation (also mirrored into ``tags``)."""
        self.warnings.append(message)

    # -- views -------------------------------------------------------------------

    def span_named(self, name: str) -> Span | None:
        """The first span called *name*, if any."""
        for entry in self.spans:
            if entry.name == name:
                return entry
        return None

    @property
    def total_seconds(self) -> float:
        return sum(entry.seconds for entry in self.spans)

    def to_dict(self) -> dict:
        payload: dict = {
            "outcome": self.outcome,
            "total_seconds": self.total_seconds,
            "spans": [entry.to_dict() for entry in self.spans],
        }
        if self.tags:
            payload["tags"] = dict(self.tags)
        if self.warnings:
            payload["warnings"] = list(self.warnings)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Trace":
        return cls(
            spans=[Span.from_dict(s) for s in payload.get("spans", [])],
            outcome=payload.get("outcome", "ok"),
            tags=dict(payload.get("tags", {})),
            warnings=list(payload.get("warnings", [])),
        )
