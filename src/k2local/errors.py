"""Exception hierarchy shared by all k2local modules."""


class K2LocalError(Exception):
    """Base class for all library errors."""


class InvariantViolation(K2LocalError):
    """An internal invariant failed: a bug, not bad input."""


# --- finite fields ---------------------------------------------------------

class CompositeP(K2LocalError):
    """The requested characteristic is not prime."""


class ReducibleModulus(K2LocalError):
    """A supplied modulus polynomial is not irreducible (or wrong degree)."""


class NotASubfield(K2LocalError):
    """Relative norm/trace requested along a non-embedding."""


# --- series ----------------------------------------------------------------

class FieldMismatch(K2LocalError):
    """Operands live over different coefficient fields/rings."""


class ZeroElement(K2LocalError):
    """Valuation or decomposition of the zero element requested."""


class ZeroDivisor(K2LocalError):
    """Inversion of an element indistinguishable from zero at precision."""


class PrecisionTooLow(K2LocalError):
    """A required coefficient lies outside the guaranteed precision."""


# --- witt ------------------------------------------------------------------

class RingMismatch(K2LocalError):
    """Witt arithmetic between vectors over different rings or lengths."""


class InsufficientPadicPrecision(K2LocalError):
    """Ghost computation needs more p-adic digits than available."""


class NonIntegralGhost(K2LocalError):
    """A P_m division was not exact; upstream precision bug."""


class WrongCharacteristic(K2LocalError):
    """Operation requires a char-p coefficient ring."""


class UnsupportedLength(K2LocalError):
    """Witt length exceeds the configured maximum."""


# --- forms / symbols -------------------------------------------------------

class CoefficientOutsidePrecision(PrecisionTooLow):
    """The (-1,-1) coefficient of a 2-form is not determined."""


class ZeroArgument(K2LocalError):
    """A symbol slot is zero (not a unit of the field)."""


class LevelExceedsPrecision(K2LocalError):
    """Decomposition level exceeds the working precision of the inputs."""


# --- global ----------------------------------------------------------------

class NotReducible(K2LocalError):
    """as_reduce input leaves the supported function class."""


class UndeclaredCurveFactor(K2LocalError):
    """A point-mode factor is not in the declared admissible set."""


class BadIndexPair(K2LocalError):
    """duality_kernel_point called with both indices divisible by p."""


class ExpansionAtPole(K2LocalError):
    """Local expansion failed (should not occur for Laurent data)."""


class ModeMismatch(K2LocalError):
    """Adelic pairing called with incompatible mode/support."""


# --- cli -------------------------------------------------------------------

class UsageError(K2LocalError):
    """Malformed command line: bad verb, flag, arity or field spec."""


class ExprSyntaxError(K2LocalError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UndefinedSymbol(K2LocalError):
    """Unknown identifier in an input expression."""


class DivisionByZero(K2LocalError):
    """Exact division by a zero denominator during evaluation."""
