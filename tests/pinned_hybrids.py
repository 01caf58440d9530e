"""Matrix columns that pin one of the paper's hybrid policies (§6).

The ``hybrid`` engine stages fields (Max) and carries whole elements as
row indexes (Min).  Buffered staging and ``minimal=True`` (result fields
read off the objects) emit different programs, so the engine matrices
keep a column for each: the ``pinned_hybrids``
fixture registers every label below as an engine name for the duration
of one test, backed by :class:`~repro.codegen.hybrid_backend.HybridBackend`
with that policy.  Outside a test that requests the fixture the labels
are unknown engines.
"""

import functools

import pytest

from repro.codegen.hybrid_backend import HybridBackend
from repro.query import shape

#: column label → HybridBackend arguments
PINNED_HYBRIDS = {
    "hybrid_buffered": {"buffered": True},  # Max, page-by-page staging
    "hybrid_min_buffered": {"buffered": True, "minimal": True},  # Min
}


@pytest.fixture
def pinned_hybrids(monkeypatch):
    for label, policy in PINNED_HYBRIDS.items():
        monkeypatch.setitem(
            shape._BACKENDS, label, functools.partial(HybridBackend, **policy)
        )
