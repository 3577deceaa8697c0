"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers embedding the library can catch a single base class.  The
subclasses mirror the three layers of the system: configuration, data,
and mechanism execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """A configuration value is out of range or inconsistent.

    Raised eagerly at construction time (for example a copy probability
    outside ``(0, 1)``), never in the middle of an experiment.
    """


class DataFormatError(ReproError, ValueError):
    """A dataset violates the claim-matrix schema.

    Examples: a claim referencing an unknown worker or task, a value
    outside the task's declared domain, or a duplicate (worker, task)
    claim.
    """


class MetricMismatchError(ReproError, ValueError):
    """Instance rows of one run disagree on their metric names.

    Every instance of a run must report exactly the same metrics; a
    ragged table means the metric function is nondeterministic in its
    *shape*, which would silently corrupt aggregation.  The message
    names the first offending instance and the missing/unexpected
    metrics.
    """


class InfeasibleCoverageError(ReproError, RuntimeError):
    """The SOAC instance cannot be covered by the available workers.

    Raised by the auction layer when the summed accuracies of all
    bidders are below the accuracy requirement of at least one task.
    The offending task ids are carried in :attr:`task_ids`.
    """

    def __init__(self, task_ids: tuple[str, ...], message: str | None = None):
        self.task_ids = tuple(task_ids)
        if message is None:
            listed = ", ".join(self.task_ids[:5])
            suffix = ", ..." if len(self.task_ids) > 5 else ""
            message = (
                "accuracy requirements cannot be met for tasks: "
                f"{listed}{suffix}"
            )
        super().__init__(message)


class ConvergenceWarning(UserWarning):
    """DATE stopped at the iteration cap without the truth stabilizing."""


class UnknownNameError(ReproError, KeyError):
    """A name is not present in its registry or store.

    A ``KeyError``, so a lookup can be caught like a mapping's, but its
    ``str()`` is the plain message: ``KeyError.__str__`` would quote it.
    """

    def __str__(self) -> str:
        return Exception.__str__(self)


class UnknownExperimentError(UnknownNameError):
    """An experiment id is not present in the experiment registry."""
