"""Exception hierarchy.

Every error raised by the library derives from BHMirrorError.  The CLI maps
InputError subclasses to exit status 2 and InternalError subclasses to exit
status 3; verification failures are reported, not raised.
"""


class BHMirrorError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        """Machine-readable error code (class name without the Error suffix)."""
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name


class InputError(BHMirrorError):
    """Invalid user input (malformed polynomial, inadmissible group, ...)."""


class InternalError(BHMirrorError):
    """A cross-check that can only fail through an implementation defect."""


class PolynomialSyntaxError(InputError):
    """Polynomial text does not match the grammar; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position

    @property
    def code(self) -> str:
        return "SyntaxError"


class NonSquareError(InputError):
    """Monomial count differs from variable count."""


class SingularExponentMatrixError(InputError):
    """Exponent matrix is not invertible over the rationals."""


class NonPositiveWeightError(InputError):
    """The solved weight vector has a non-positive entry."""


class DegenerateShapeError(InputError):
    """No Fermat/chain/loop decomposition of the exponent matrix exists."""


class TooManyVariablesError(InputError):
    """More variables than the exhaustive atom search supports."""


class NotCyclicSplitError(InputError):
    """First variable is not a clean pure power x0^k."""


class DegenerateRestrictionError(InputError):
    """Restriction to a fixed-variable subset is degenerate."""


class GroupTooLargeError(InputError):
    """Group enumeration exceeded the configured element cap."""


class NotInGroupError(InputError):
    """A vector that was expected to be a symmetry of the polynomial is not."""


class NotAdmissibleError(InputError):
    """K fails j_f^k in K or K not inside SL_f."""


class GradingCollisionError(InputError):
    """Two distinct (a, b) labels name the same coset, so the cyclic
    gradings would be multi-valued."""


class NotFermatError(InputError):
    """Operation requires a Fermat-diagonal polynomial or restriction."""


class SideMismatchError(InputError):
    """Twist or elevator applied to an entry on the wrong side of the state space."""


class ZOutOfRangeError(InputError):
    """Elevator/twist level outside 1..k-1."""


class NoSuchEntryError(InputError, KeyError):
    """A state label that names no entry of the table it is looked up in;
    a KeyError, so the table's label view answers `in` and `get`."""


class PatternMismatchError(InputError):
    """A K3 sector grid does not fit the closed-form table pattern."""


class NonIntegralLatticeError(InputError):
    """Lattice invariants came out non-integral."""


class DualityViolationError(InternalError):
    """A duality identity that must hold failed; indicates a bug."""
