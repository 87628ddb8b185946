"""The pages each workload sends, and what the program must answer.

Every corpus is fixed.  ``typical`` and ``stacked`` send the same pages
in the same order whatever the seed (see ``inprocess.run_phase`` for why
the order is fixed); for ``serve`` the seed draws the hot set, the order
of requests and the bytes that make each never-seen page unique.
Content is not re-drawn per seed because page cost is heavy-tailed:
across eight re-drawn copies of the paper's datasets the instance count
of the 252 pages spread 17 % IQR/median, which would swamp any
regression bound.

The program receives only generated HTML; ground truth stays here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro.datasets.domains import DOMAINS
from repro.datasets.generator import GeneratorProfile, SourceGenerator
from repro.datasets.repository import standard_datasets
from repro.evaluation.metrics import (
    SourceMetrics,
    overall_metrics,
    per_source_metrics,
)
from repro.semantics.condition import Condition, SemanticModel
from repro.semantics.matching import ConditionMatcher
from repro.semantics.serialize import model_to_dict

#: The batch120 corpus of ``repro bench``: forms of 14-32 tokens with 3-7
#: in-grammar conditions, drawn from generator seeds 61,000 onwards.  The
#: offsets of the 120 kept forms are pinned so the corpus does not move
#: when the tokenizer does.
BATCH_BASE_SEED = 61_000
BATCH_PROFILE = GeneratorProfile(
    min_conditions=3, max_conditions=7, rare_pattern_prob=0.0
)
BATCH_OFFSETS = (
    0, 1, 2, 3, 5, 7, 8, 9, 10, 13, 14, 15, 16, 18, 20, 21, 24, 25, 27, 28,
    29, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 45, 46, 47, 48, 49,
    50, 51, 53, 54, 56, 58, 59, 60, 61, 62, 63, 64, 65, 68, 70, 73, 74, 76,
    77, 78, 79, 81, 82, 83, 84, 85, 86, 87, 90, 91, 93, 94, 95, 96, 98, 99,
    100, 101, 102, 104, 105, 108, 109, 110, 111, 113, 114, 116, 117, 119,
    120, 121, 123, 124, 125, 126, 128, 129, 130, 131, 133, 134, 135, 136,
    138, 140, 142, 143, 144, 146, 147, 149, 150, 151, 152, 153, 154, 157,
    158, 159, 160, 162,
)

#: sha256 of the models the program returned for each corpus, in corpus
#: order, when this benchmark was defined.  An optimisation must leave
#: them byte-identical; a change that alters models on purpose re-pins
#: them in a benchmark-only change (the check prints the new digest).
PINNED_MODEL_DIGESTS = {
    "typical": "f43bd37eb265fe7192db35dc3074aade3ee5ad8e7d5bb42c8efb903a55b77461",
    "stacked": "614b0ebac0d8aa96245b85b465229b14a12be0940c79f899dc47d20759180f7d",
}

#: serve: hot-page requests sent for every never-seen page.
HITS_PER_MISS = 3
#: serve: pages in the hot set; each is asked for 9 times per cycle.
HOT_PAGES = 84


@dataclass(frozen=True)
class Page:
    """One page the benchmark sends, with its generator truth."""

    name: str
    html: str
    truth: tuple[Condition, ...]


def typical_pages() -> list[Page]:
    """The paper's four evaluation datasets at full size (252 pages)."""
    return [
        Page(source.name, source.html, tuple(source.truth))
        for dataset in standard_datasets().values()
        for source in dataset
    ]


def _form_body(html: str) -> str:
    """The inside of the page's single ``<form>`` element."""
    start = html.index(">", html.index("<form")) + 1
    return html[start:html.index("</form>")]


def stack_forms(first: Page, second: Page) -> Page:
    """Two forms inside one whole-page ``<form>``, the ASP.NET layout.

    Each form's controls keep their own block; the page has exactly one
    ``<form>`` element and its truth is the union of both forms' truth.
    """
    html = (
        "<html><head><title>Search</title></head><body>"
        '<form action="/default.aspx" method="post">'
        f"<div>{_form_body(first.html)}</div>"
        f"<div>{_form_body(second.html)}</div>"
        "</form></body></html>"
    )
    return Page(
        f"{first.name}+{second.name}", html, first.truth + second.truth
    )


def batch120_sources() -> list[Page]:
    domains = sorted(DOMAINS)
    pages = []
    for offset in BATCH_OFFSETS:
        seed = BATCH_BASE_SEED + offset
        generator = SourceGenerator(
            DOMAINS[domains[seed % len(domains)]], BATCH_PROFILE
        )
        source = generator.generate(seed)
        pages.append(Page(source.name, source.html, tuple(source.truth)))
    return pages


def stacked_pages() -> list[Page]:
    """batch120 as 60 pages of consecutive form pairs."""
    forms = batch120_sources()
    return [stack_forms(a, b) for a, b in zip(forms[0::2], forms[1::2])]


def mark(page: Page, tag: str) -> Page:
    """The same page under distinct bytes (an HTML comment after <html>)."""
    html = page.html.replace("<html>", f"<html><!-- perfbench {tag} -->", 1)
    if html == page.html:
        raise ValueError(f"page {page.name} has no <html> tag to mark")
    return Page(f"{page.name}#{tag}", html, page.truth)


@dataclass
class ServeRequest:
    page: Page
    #: True for a hot-set page the cache already holds.
    hot: bool


def serve_hot_set(pages: list[Page], seed: int) -> list[Page]:
    """The pages requested once before timing, so the cache holds them."""
    chosen = random.Random(f"serve-hot:{seed}").sample(
        range(len(pages)), HOT_PAGES
    )
    return [mark(pages[index], f"s{seed}-hot{index}") for index in chosen]


def serve_cycle(
    pages: list[Page], hot: list[Page], seed: int, cycle: int
) -> list[ServeRequest]:
    """One cycle: every corpus page once as a never-seen page, and
    ``HITS_PER_MISS`` hot requests for each, in seeded blocks of four.

    Every never-seen page carries a tag unique to (seed, cycle, index),
    so it misses the cache exactly once; hot pages were all requested
    before timing, so each hot request hits.  The hit share is therefore
    exact whatever order concurrent requests finish in.
    """
    rng = random.Random(f"serve-cycle:{seed}:{cycle}")
    order = list(range(len(pages)))
    rng.shuffle(order)
    misses = [
        mark(pages[index], f"s{seed}-c{cycle}-new{index}") for index in order
    ]
    repeats = HITS_PER_MISS * len(pages) // len(hot)
    if repeats * len(hot) != HITS_PER_MISS * len(pages):
        raise ValueError("hot set size must divide the hot requests evenly")
    hits = [page for page in hot for _ in range(repeats)]
    rng.shuffle(hits)
    requests: list[ServeRequest] = []
    for block, miss in enumerate(misses):
        block_hits = hits[HITS_PER_MISS * block:HITS_PER_MISS * (block + 1)]
        entries = [ServeRequest(page, True) for page in block_hits]
        entries.insert(rng.randrange(HITS_PER_MISS + 1), ServeRequest(miss, False))
        requests.extend(entries)
    return requests


def model_digest(models: list[SemanticModel]) -> str:
    payload = json.dumps(
        [model_to_dict(model) for model in models], sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def quality(
    models: list[SemanticModel], truths: list[tuple[Condition, ...]]
) -> SourceMetrics:
    """The paper's overall Pa/Ra counts (Section 6.1) over these pages."""
    matcher = ConditionMatcher()
    return overall_metrics([
        per_source_metrics(list(model.conditions), list(truth), matcher)
        for model, truth in zip(models, truths)
    ])
