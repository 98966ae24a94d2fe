"""Error taxonomy shared by the whole package.

Three failure families are kept apart so callers can react sensibly:
structurally bad input (DomainError), valid input that violates an
operation's hypotheses (PreconditionError), and walks that visit more
candidates than their budget (BudgetError).  InconsistencyError is
reserved for computations that contradict a statement the library is
supposed to certify; it should never fire on correct code.
"""


class OptSL2Error(Exception):
    """Base class for all package errors."""


class DomainError(OptSL2Error):
    """Bad prime, shape mismatch, mixed scalar domains, malformed literal."""


class PreconditionError(OptSL2Error):
    """Input is well formed but an operation's hypothesis fails."""


class BudgetError(OptSL2Error):
    """An exhaustive walk visited more candidates than its budget."""


class InconsistencyError(OptSL2Error):
    """A verified-by-construction identity failed to hold."""
