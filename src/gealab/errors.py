"""Exception types shared across the package."""


class GealabError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- kernel


class NotEnumerable(GealabError):
    """The carrier cannot be enumerated (exhaustive mode unavailable)."""


class NoOrderOracle(GealabError):
    """Order query on a non-enumerable carrier without a registered oracle."""


class NonUniqueWitness(GealabError):
    """Two distinct witnesses for the same difference: cancellation fails."""


class NotSumClosed(GealabError):
    """Subset is not closed under the ambient sums; carries a witness pair."""

    def __init__(self, witness, message=""):
        self.witness = witness
        super().__init__(message or f"subset not closed under ambient sums, witness {witness}")


class JoinUnavailable(GealabError):
    """A required join does not exist (or the oracle reported none)."""


class MeetUnavailable(GealabError):
    """A required meet does not exist (or the oracle reported none)."""


class VerificationFailed(GealabError):
    """A result failed its internal cross-check against brute-force search."""


# ------------------------------------------------------------- instances


class NonPositiveBound(GealabError):
    """Interval bound must be strictly positive in the ambient cone."""


# ---------------------------------------------------------- hilbert model


class DimensionMismatch(GealabError):
    """Vector lengths do not match each other or the model level."""


# ----------------------------------------------------------- form engine


class ModelMismatch(GealabError):
    """Operands live on different Hilbert-space models."""


class DomainViolation(GealabError):
    """Vector lies outside the discrete representation of the form domain."""


class OutsideCatalog(GealabError):
    """Requested atom, coefficient map or domain tag is not in the catalog."""


class SymbolicOnly(GealabError):
    """The form is shipped symbolically and has no numerical matrices."""


class UnboundedForm(GealabError):
    """Operation requires a bounded form."""


class NotClosed(GealabError):
    """Operation requires a closed form."""


class ClassificationMismatch(GealabError):
    """Declared boundedness disagrees with the numerical growth probe."""


class EigenFailure(GealabError):
    """The underlying eigenvalue solve did not converge."""


# ------------------------------------------------------------- forms-gea


class NotInFamily(GealabError):
    """Operand is not a member of the requested family."""


class NegativeCoefficient(GealabError):
    """Atom-wise subtraction would produce a negative coefficient."""


class NotInGf(GealabError):
    """Form is not generated by a catalog operator."""


# -------------------------------------------------------- convergence lab


class MonotonicityViolation(GealabError):
    """A chain failed its declared order between consecutive terms."""

    def __init__(self, n, message=""):
        self.n = n
        super().__init__(message or f"order violated between terms {n} and {n + 1}")


class NoDeclaredLimit(GealabError):
    """Chain has no declared limit form."""


class NotClosedChain(GealabError):
    """Chain contains a term that is not closed."""


class NotDominated(GealabError):
    """Chain is not dominated by the supplied bound."""
