"""Cooperative resource guarding for the extraction pipeline.

A :class:`ResourceGuard` is threaded through the pipeline stages
(``html.parser``, ``layout.engine``, ``tokens.tokenizer``,
``parser.parser``, ``merger``) and checked *cooperatively*: stages ask
the guard at loop boundaries whether they may continue, instead of being
interrupted by signals.  That keeps the mechanism portable (worker
threads, Windows, nested pools) and lets stages stop at a clean point
where partial output is still coherent.

Two modes, both built by ``FormExtractor._run``, the one place a
per-form guard is made:

* ``mode="raise"`` -- a breach raises :class:`BudgetExceeded`.  This is a
  deadline without the ladder: the guard carries only the caller's
  deadline (batch's ``timeout``), and a breach becomes a ``Timeout:``
  error record.
* ``mode="degrade"`` -- a breach records a :class:`GuardEvent` and the
  check returns a "stop now" answer; the stage truncates its output and
  the degradation ladder reports the event as a downgrade.  This is the
  paper-faithful best-effort behavior, and the caller's deadline, when
  given, replaces the ladder's ``deadline_seconds``.

Deadline checks are strided (:meth:`ResourceGuard.tick`) so hot loops
pay one integer test per iteration and a clock read only every
``stride`` iterations -- guard overhead stays well under the 5% budget
on real batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


class BudgetExceeded(RuntimeError):
    """A pipeline stage ran past a :class:`ResourceGuard` limit.

    Attributes:
        resource: Which budget was breached (``"deadline"``, ``"nodes"``,
            ``"depth"``, ``"tokens"``, ``"input-bytes"``, ``"combos"``).
        stage: Pipeline stage that observed the breach.
        limit: The configured ceiling.
        observed: The value that crossed it.
    """

    def __init__(
        self, resource: str, stage: str, limit: float, observed: float
    ):
        self.resource = resource
        self.stage = stage
        self.limit = limit
        self.observed = observed
        super().__init__(
            f"{resource} budget exceeded in {stage}: "
            f"observed {observed:g} > limit {limit:g}"
        )


@dataclass(frozen=True)
class ResourceLimits:
    """The ceilings a :class:`ResourceGuard` enforces.

    Every field accepts ``None`` meaning "unlimited".  The defaults are
    generous -- far above anything a real query interface needs -- so the
    ladder's full level is untouched on well-formed pages, while entity
    bombs, 10k-deep nesting, and pathological fix-points still terminate.
    """

    deadline_seconds: float | None = 10.0
    max_input_bytes: int | None = 2_000_000
    max_nodes: int | None = 50_000
    max_depth: int | None = None  # None -> the stage's own structural cap
    max_tokens: int | None = 4_000
    max_combos: int | None = None  # None -> defer to ParserConfig budgets


@dataclass(frozen=True)
class GuardEvent:
    """One recorded budget breach (degrade mode)."""

    resource: str
    stage: str
    limit: float
    observed: float

    def describe(self) -> str:
        return (
            f"{self.resource} budget hit in {self.stage} "
            f"({self.observed:g} > {self.limit:g})"
        )


@dataclass
class ResourceGuard:
    """Cooperative budget checked by every pipeline stage.

    Call :meth:`start` to arm the wall-clock deadline, then hand the
    guard to the pipeline.  All check methods are cheap no-ops for
    budgets left at ``None``.

    The guard is *stateful* (node counter, tick counter, event list) and
    therefore scoped to one extraction -- build a fresh guard per form.
    """

    limits: ResourceLimits = field(default_factory=ResourceLimits)
    mode: str = "degrade"
    events: list[GuardEvent] = field(default_factory=list)
    _deadline: float | None = field(default=None, repr=False)
    _nodes: int = field(default=0, repr=False)
    _ticks: int = field(default=0, repr=False)
    _noted: set = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "degrade"):
            raise ValueError(f"unknown guard mode: {self.mode!r}")

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "ResourceGuard":
        """Arm the wall-clock deadline; returns ``self`` for chaining."""
        if self.limits.deadline_seconds is not None:
            self._deadline = (
                time.perf_counter() + self.limits.deadline_seconds
            )
        return self

    def remaining_seconds(self) -> float | None:
        """Seconds until the deadline, or ``None`` when unarmed."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.perf_counter())

    # -- breach bookkeeping -------------------------------------------------------

    def note(
        self, resource: str, stage: str, limit: float, observed: float
    ) -> None:
        """Record a breach once per (resource, stage); raise in raise mode."""
        key = (resource, stage)
        if key not in self._noted:
            self._noted.add(key)
            self.events.append(GuardEvent(resource, stage, limit, observed))
        if self.mode == "raise":
            raise BudgetExceeded(resource, stage, limit, observed)

    # -- deadline -----------------------------------------------------------------

    def over_deadline(self, stage: str) -> bool:
        """True (or raises) when the wall-clock deadline has passed."""
        if self._deadline is None:
            return False
        now = time.perf_counter()
        if now < self._deadline:
            return False
        limit = self.limits.deadline_seconds or 0.0
        self.note("deadline", stage, limit, limit + (now - self._deadline))
        return True

    def tick(self, stage: str, stride: int = 1024) -> bool:
        """Strided deadline check for hot loops.

        Reads the clock every *stride* calls; between reads it costs one
        increment and one comparison.  Returns True when the stage should
        stop (degrade mode) -- or raises (raise mode).
        """
        if self._deadline is None:
            return False
        self._ticks += 1
        if self._ticks % stride:
            return False
        return self.over_deadline(stage)

    # -- countable budgets --------------------------------------------------------

    def admit_nodes(self, count: int, stage: str) -> bool:
        """Charge *count* DOM nodes; False means "stop building"."""
        self._nodes += count
        limit = self.limits.max_nodes
        if limit is not None and self._nodes > limit:
            self.note("nodes", stage, limit, self._nodes)
            return False
        return True

    def admit_depth(self, depth: int, stage: str) -> bool:
        """True while *depth* is within the depth ceiling."""
        limit = self.limits.max_depth
        if limit is not None and depth > limit:
            self.note("depth", stage, limit, depth)
            return False
        return True

    def cap_count(self, resource: str, count: int, stage: str) -> int:
        """Admitted item count for a sized budget (e.g. tokens)."""
        limit = getattr(self.limits, f"max_{resource}", None)
        if limit is not None and count > limit:
            self.note(resource, stage, limit, count)
            return limit
        return count

    def cap_input(self, size: int, stage: str = "input") -> int:
        """Admitted input size in bytes/chars."""
        limit = self.limits.max_input_bytes
        if limit is not None and size > limit:
            self.note("input-bytes", stage, limit, size)
            return limit
        return size

    # -- introspection ------------------------------------------------------------

    @property
    def breached(self) -> bool:
        """Whether any budget was hit so far."""
        return bool(self.events)
