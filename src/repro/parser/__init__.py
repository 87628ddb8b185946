"""The best-effort parser (paper Section 5).

Working with a *derived* grammar that is inherently ambiguous and
incomplete, the parser cannot reject any input.  Instead it:

* schedules symbol instantiation with the **2P schedule graph** so that
  preference winners are generated before losers (*just-in-time pruning*,
  Section 5.2), transforming or relaxing r-edges when the graph is cyclic;
* instantiates symbols with a **fix-point** evaluation, enforcing
  preferences at the end of each symbol's instantiation and *rolling back*
  the ancestors of invalidated instances;
* finally keeps the **maximum partial trees** under token-coverage
  subsumption (Section 5.3).

:class:`ExhaustiveParser` disables the preference machinery, reproducing the
"brute-force" baseline of Section 4.2.1 used in the ablation benchmarks.
"""

from repro.parser.parser import (
    BestEffortParser,
    ExhaustiveParser,
    ParseResult,
    ParserConfig,
    ParseStats,
)
from repro.parser.maximization import maximal_roots
from repro.parser.schedule import (
    REdgeDecision,
    Schedule,
    ScheduleError,
    ScheduleGraph,
    build_schedule,
    build_schedule_graph,
)

__all__ = [
    "BestEffortParser",
    "ExhaustiveParser",
    "ParseResult",
    "ParserConfig",
    "ParseStats",
    "REdgeDecision",
    "Schedule",
    "ScheduleError",
    "ScheduleGraph",
    "build_schedule",
    "build_schedule_graph",
    "maximal_roots",
]
