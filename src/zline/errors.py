"""Shared exception types."""
from __future__ import annotations

__all__ = ["ConvergenceError", "PhaseTrackError"]


class ConvergenceError(RuntimeError):
    """An iteration failed to converge, or a window/term cap was exceeded."""


class PhaseTrackError(RuntimeError):
    """Continuous-branch tracking rejected a step (under-resolved grid,
    zero sample, or a phase jump too large to assign a branch)."""
