"""Shared exception taxonomy.

Every error raised by the library derives from TropLimError so callers can
catch library failures in one clause; ValidationError, a refused argument,
and OutsideSupport are ValueErrors too.  ResourceCap subclasses mark inputs
that exceed documented size limits (ambient rank, tower depth, cells built,
the sampling oracle's degree); the CLI maps them to a dedicated exit code.
"""


class TropLimError(Exception):
    """Base class for all library errors."""


class ZeroVector(TropLimError):
    """A nonzero lattice vector was required."""


class DimensionMismatch(TropLimError):
    """Operands live in different ambient ranks."""


class NotStronglyConvex(TropLimError):
    """The generated cone contains a line."""


class ResourceCap(TropLimError):
    """Input exceeds a documented resource limit."""


class RankCap(ResourceCap):
    """Ambient rank above the exact-arithmetic cap (4)."""


class DepthCap(ResourceCap):
    """Tower extended beyond the configured depth limit."""


class CellCap(ResourceCap):
    """A complex or point set larger than the cell cap, refused unbuilt."""


class EmptyChain(TropLimError):
    """A cone chain must contain at least one entry."""


class UndecidableSign(TropLimError):
    """Interval enclosure straddles zero on a nonzero combination.

    The exact coefficient vector is nonzero, so the true sign is determined
    by the declared irrational symbols; the caller must refine the symbol
    enclosures and retry.
    """

    def __init__(self, message, coefficients=None, interval=None):
        super().__init__(message)
        self.coefficients = coefficients
        self.interval = interval


class OriginNotOnGerm(TropLimError):
    """The polynomial has a constant term, so the origin is not on its zero set."""


class NoBranchFound(TropLimError):
    """Numeric sampling found no branch approaching the origin."""


class BoundViolation(TropLimError):
    """A computed count exceeds the asserted combinatorial bound.

    The count and the bound it exceeds are carried along, so a caller that
    treats a violation as data reads them instead of recomputing either.
    """

    def __init__(self, message, count=None, bound=None):
        super().__init__(message)
        self.count = count
        self.bound = bound


class IncoherentIncidence(TropLimError):
    """Stratum incidence data does not define a complex."""


class NoAffineStructure(TropLimError):
    """The complex has no integral-affine structure."""


class NotSimplicial(TropLimError):
    """Vertex images do not span a single target cell."""


class PointOutsideTarget(TropLimError):
    """The query point does not lie on the target complex."""


class OutsideSupport(TropLimError, ValueError):
    """A direction lies outside the support of a fan."""


class NotCompatible(TropLimError):
    """The lattice map does not send every source cone into a target cone."""


class IncompleteTower(TropLimError):
    """The finite tower cannot certify the query (divisibility never reached)."""


class ParseError(TropLimError):
    """Input file violates the documented schema."""


class ValidationError(TropLimError, ValueError):
    """A parsed input or a library argument failed semantic validation."""
