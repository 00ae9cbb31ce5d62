"""Exception hierarchy shared by all bnkit modules.

Two families: :class:`PreconditionError` means the caller asked for
something outside an operation's stated domain (the CLI maps these to
exit code 2), while :class:`InternalCheckError` means an internal
identity that should hold unconditionally failed (exit code 3 -- a bug
in the engine, never a user error).  :func:`require` is the one
integer-domain rule that every public entry point states its bounds with.
"""


class BnkitError(Exception):
    """Base class for everything raised on purpose by bnkit."""


class PreconditionError(BnkitError, ValueError):
    """A stated precondition of an operation was violated."""


class InternalCheckError(BnkitError):
    """An internal consistency identity failed; indicates an engine bug."""


def require(least: int, **values: int) -> None:
    """The integer-domain rule of every public entry point: raise
    :class:`PreconditionError` for the first of ``values`` below ``least``."""
    for name, value in values.items():
        if value < least:
            raise PreconditionError(f"need {name} >= {least}, got {name}={value}")


# --- precondition violations, named per operation domain ---

class EmptyRange(PreconditionError):
    """The ell-range of the gonality rho is empty (g - d + r - 1 < 0)."""


class RhoNonzero(PreconditionError):
    """Point counts of W^r_d are only defined when rho(g, r, d) = 0."""


class OutOfConjectureRange(PreconditionError):
    """Input outside the hypotheses of the strong-maximal-rank range."""


class NotACore(PreconditionError):
    """A partition that is required to be a k-core is not one."""


class SymbolCountMismatch(PreconditionError):
    """Requested symbol count differs from the forced number of filling steps."""


class OutOfRegime(PreconditionError):
    """Maximal splitting types are only defined when g - d + r > 0."""


class NegativeRank(PreconditionError):
    """Serre duality would produce a locus of negative rank."""


class IndexOutOfRange(PreconditionError):
    """A component or summand index is out of range."""


class DegreeMismatch(PreconditionError):
    """A degree distribution does not sum to the bundle's total degree."""


class NotRPositive(PreconditionError):
    """Vanishing tables are only defined for r-positive limit line bundles."""


class WindowTooSmall(PreconditionError):
    """A result is not attained strictly inside the degree window the
    caller chose; a larger window is needed."""


class ParseError(PreconditionError):
    """A serialized value given on the command line is malformed."""


class BudgetExceeded(PreconditionError):
    """A chain computation larger than its size guard."""


class RhoNegative(PreconditionError):
    """Existence certificates require rho(g, r, d) >= 0."""


class EvenDegree(PreconditionError):
    """The balancedness certificate covers odd degrees only; an even degree
    is outside it, which says nothing about the curve's normal bundle."""


class GenericityViolation(InternalCheckError):
    """A starred chain component whose aspect is not the forced exact class;
    under the genericity axioms this cannot happen, so it flags an engine bug."""
