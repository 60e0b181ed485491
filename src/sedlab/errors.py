"""Error types shared across the solver tiers.

Exit codes used by the CLI: 0 success, 2 assumption violation,
3 solver non-convergence, 4 domain exhaustion.
"""

from __future__ import annotations

EXIT_ASSUMPTION = 2
EXIT_CONVERGENCE = 3
EXIT_DOMAIN = 4


class SedlabError(Exception):
    """Base class for runtime failures that map to CLI exit codes."""

    exit_code = 1


class AssumptionError(SedlabError):
    """Initial data or run state violates a hypothesis flag."""

    exit_code = EXIT_ASSUMPTION


class CollisionError(AssumptionError):
    """Two particles came within touching distance; run aborted.

    Carries the offending ensemble so the caller can dump state.
    """

    def __init__(self, message, ensemble=None):
        super().__init__(message)
        self.ensemble = ensemble


class ConvergenceError(SedlabError):
    """An iterative solver failed to reach its tolerance."""

    exit_code = EXIT_CONVERGENCE

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DomainExhaustedError(SedlabError):
    """A cloud's stencils span more cells than the grid has; the run cannot continue honestly."""

    exit_code = EXIT_DOMAIN
