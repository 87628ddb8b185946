"""The fuzz harness's single invariant: resilient extraction never blows up.

For every corpus seed and every deterministic mutant,
``FormExtractor.extract_resilient`` must return an
:class:`~repro.extractor.ExtractionResult` -- possibly degraded, but
structured -- or raise exactly :class:`~repro.extractor.FormNotFoundError`
(the one *typed* refusal, for documents with no query form at all).
Anything else -- any other exception, a hang past the deadline, a result
whose level is off the ladder, a ``full`` parse that breaks its result
certificate (``tests/parser/certificate.py``) -- is a bug.

``REPRO_FUZZ_MUTATIONS`` scales the mutation count (default 200; CI runs
more), ``REPRO_FUZZ_SEED`` re-seeds the mutator.  A failure names the
base seed, the operator chain, and the mutant index, so
``mutant(seed, index)`` reproduces the exact document.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.extractor import ExtractionResult, FormExtractor, FormNotFoundError
from repro.resilience.guard import ResourceLimits
from repro.resilience.ladder import LEVELS, ResilienceConfig
from tests.fuzz.corpus import SEEDS
from tests.fuzz.mutator import mutations
from tests.parser.certificate import certify

#: Wall-clock deadline per document.  Tight enough that a runaway loop
#: fails the suite quickly, loose enough that the resource-attack seeds
#: finish at the ``capped`` level rather than timing out.
DEADLINE_SECONDS = 5.0

#: Generous ceiling on observed wall time per document: the guard is
#: cooperative, so a stage may legitimately overshoot the deadline by the
#: stride between checks -- but never by this much.
WALL_CEILING_SECONDS = 3 * DEADLINE_SECONDS + 5.0

MUTATION_COUNT = int(os.environ.get("REPRO_FUZZ_MUTATIONS", "200"))
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20040613"))


@pytest.fixture(scope="module")
def extractor() -> FormExtractor:
    return FormExtractor(
        resilience=ResilienceConfig(
            limits=ResourceLimits(deadline_seconds=DEADLINE_SECONDS)
        )
    )


def _assert_survives(extractor: FormExtractor, label: str, html: str) -> None:
    started = time.perf_counter()
    try:
        result = extractor.extract_resilient(html)
    except FormNotFoundError:
        # The one acceptable refusal: nothing resembling a form exists.
        return
    elapsed = time.perf_counter() - started
    assert isinstance(result, ExtractionResult), label
    assert result.model is not None, label
    assert result.level in LEVELS, f"{label}: off-ladder level {result.level}"
    for report in result.degradation:
        assert report.level in LEVELS, label
        assert report.describe() in result.warnings, (
            f"{label}: downgrade not surfaced as a warning"
        )
    assert elapsed < WALL_CEILING_SECONDS, (
        f"{label}: took {elapsed:.1f}s against a "
        f"{DEADLINE_SECONDS:g}s deadline"
    )
    if result.level == "full":
        certify(result.parse, extractor.grammar)


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_corpus_seed_survives(extractor: FormExtractor, name: str) -> None:
    _assert_survives(extractor, f"seed:{name}", SEEDS[name])


def test_mutations_survive(extractor: FormExtractor) -> None:
    assert MUTATION_COUNT >= 1
    for label, html in mutations(FUZZ_SEED, MUTATION_COUNT):
        _assert_survives(extractor, label, html)


def test_mutator_is_deterministic() -> None:
    first = list(mutations(FUZZ_SEED, 20))
    second = list(mutations(FUZZ_SEED, 20))
    assert first == second
