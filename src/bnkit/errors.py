"""The two failure classes of bnkit, one per CLI exit code.

:class:`PreconditionError` means the caller asked for something outside
an operation's stated domain (the CLI maps it to exit code 2), while
:class:`InternalCheckError` means a computed answer failed a check
(exit code 3 -- a bug in the engine, never a user error).  The message
says which precondition or check; no finer type is raised.
:func:`require` is the one integer-domain rule that every public entry
point states its bounds with, ``_MAX_HITS`` the one hit guard that
both listings refuse by, and ``_MAX_NODES`` the size guard of the
k-filling sweep.
"""

from operator import index


#: chain.search_witnesses reads its count and tableaux.k_filling_witnesses counts its
#: words as they are made; both refuse to list more than this before any witness
_MAX_HITS = 100_000

#: tableaux._filling_sweep refuses a strict-add graph of more cores than
#: this, checked as each level is swept
_MAX_NODES = 100_000


class PreconditionError(ValueError):
    """A stated precondition of an operation was violated."""


class InternalCheckError(Exception):
    """A computed answer failed a check; indicates an engine bug."""


def require(least: int | None, **values: int) -> None:
    """The integer-domain rule of every public entry point: raise
    :class:`TypeError` for the first of ``values`` that is not an integer
    (read through ``operator.index``, as ``range`` does) and
    :class:`PreconditionError` for the first one below ``least`` (no
    bound when ``least`` is None)."""
    for name, value in values.items():
        try:
            index(value)
        except TypeError:
            raise TypeError(f"need an integer {name}, got {name}={value!r}") from None
        if least is not None and value < least:
            raise PreconditionError(f"need {name} >= {least}, got {name}={value}")
