"""Typed failures shared across the engine.

The oracles refuse rather than guess: a query outside the supported
reductions raises ``UnsupportedQuery``, and a computation whose standing
hypotheses fail raises ``HypothesisViolated`` or ``Inapplicable`` instead
of returning a number.  A broken internal invariant raises ``InternalError``:
it is a defect of the engine, never a property of the query.
"""


class GWError(Exception):
    """Base class for engine-specific failures."""


class UnsupportedQuery(GWError):
    """The oracle cannot reduce this query; it never invents a value."""


class HypothesisViolated(GWError):
    """A required hypothesis (divisor positivity, V >= l) does not hold."""


class Inapplicable(GWError):
    """The inputs are outside the range where the procedure is justified."""


class InternalError(GWError, RuntimeError):
    """An internal invariant failed: a result the engine computed is
    impossible (a negative curve count, a class of the wrong degree)."""
