"""Content-addressed extraction caching (see ``docs/PERFORMANCE.md``).

Real form workloads are dominated by repeated token patterns -- the same
hidden grammar rendered over and over.  This package gives every layer of
the pipeline a way to recognize a form it has already parsed:

* :func:`token_signature` / :func:`html_signature` -- canonical,
  position-quantized content hashes (translation-invariant for tokens).
* :class:`ExtractionCache` -- a bounded, thread-safe LRU from signature to
  serialized extraction outcome, with an optional process-safe JSON-lines
  disk backing (:mod:`repro.cache.log`) shared by pool workers;
  :data:`CACHE_FILENAME` names its file inside a cache directory.
* :class:`CacheEntry` / :class:`CacheStats` -- the stored plain-data
  snapshot and the hit/miss accounting.
"""

from repro.cache.signature import (
    SIGNATURE_QUANTUM,
    grammar_fingerprint,
    html_signature,
    token_signature,
)
from repro.cache.store import (
    CACHE_FILENAME,
    DEFAULT_CAPACITY,
    CacheEntry,
    CacheStats,
    ExtractionCache,
)

__all__ = [
    "CACHE_FILENAME",
    "SIGNATURE_QUANTUM",
    "DEFAULT_CAPACITY",
    "CacheEntry",
    "CacheStats",
    "ExtractionCache",
    "grammar_fingerprint",
    "html_signature",
    "token_signature",
]
