"""Retired plan pre-flight, kept as two shims for the lifecycle replay.

The backend that compiles a plan is the only judge of whether its engine
can run it: ``backend.compile`` raises
:class:`~repro.errors.UnsupportedQueryError`, and the provider and
``explain()`` report that refusal.  Element types and operator
preconditions are :mod:`repro.expressions.typing`'s.  Nothing in the
package imports this module; ``benchmarks/lifecycle/layers.py`` still
replays the two calls below, which now do nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CapabilityReport", "validate_plan", "capability_report"]


@dataclass(frozen=True)
class CapabilityReport:
    """Always ``supported``: the backend decides when it compiles."""

    engine: str
    supported: bool


def validate_plan(plan, source_types=(), params=None) -> None:
    """No-op: typing checked the canonical tree before the plan existed."""
    return None


def capability_report(plan, engine, sources=(), plan_types=None) -> CapabilityReport:
    """Supported for every engine: the backend decides, raising
    :class:`~repro.errors.UnsupportedQueryError` from ``compile``."""
    return CapabilityReport(engine, True)
