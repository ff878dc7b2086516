"""Exception types raised by the toolkit.

Every error carries a human-readable message naming the offending object
(cone, ray, vector, file location) so CLI output can point at the problem.
"""


class GkzfracError(Exception):
    """Base class for all toolkit errors."""


# --- exact linear algebra ---------------------------------------------------

class RankDeficient(GkzfracError):
    """Matrix rows are linearly dependent over the rationals."""


class DimensionMismatch(GkzfracError):
    """Operands have incompatible dimensions."""


class NotUnimodular(GkzfracError):
    """Determinant not +-1: a square matrix to invert over the integers, or
    a simplex of the maximal triangulation."""


# --- polytopes ---------------------------------------------------------------

class OriginNotInterior(GkzfracError):
    """Polar dual requested for a polytope without the origin inside."""


class NotReflexive(GkzfracError):
    """Nef-partition consistency check failed."""


# --- fans --------------------------------------------------------------------

class NotSmooth(GkzfracError):
    """A maximal cone has determinant different from +-1."""


class NotComplete(GkzfracError):
    """Some direction lies in no maximal cone."""


class RayNotPrimitive(GkzfracError):
    """A ray generator has entry gcd larger than 1."""


class EmptyInterior(GkzfracError):
    """Cone is not pointed and full-dimensional (non-projective input, or,
    as NotRegular, a triangulation without a strictly convex lifting)."""


# --- GKZ system --------------------------------------------------------------

class NotInKernel(GkzfracError):
    """Vector is not a relation of the point configuration."""


class UnexpectedLocus(GkzfracError):
    """Indicial zero locus is not a single point or empty."""


# --- series ------------------------------------------------------------------

class NotInRegion(GkzfracError):
    """Lattice vector lies outside the period summation region."""


class TruncationTooLarge(GkzfracError):
    """Requested expansion exceeds the configured term cap."""


class WeightNotAmple(GkzfracError):
    """Truncation weight is not positive on the Mori cone."""


class InMoriCone(GkzfracError):
    """Vanishing check called on a vector inside the Mori cone."""


# --- triangulations ----------------------------------------------------------

class DegenerateSimplex(GkzfracError):
    """A simplex has linearly dependent points."""


class NotRegular(EmptyInterior):
    """Triangulation admits no strictly convex lifting: its secondary cone
    is not pointed and full-dimensional."""


class NonTermination(GkzfracError):
    """Buchberger iteration cap exceeded."""


class IdealNotCertified(GkzfracError):
    """A premise of the certificate that the primitive-collection binomials
    generate the toric ideal fails (``GkzSystem.lattice_ideal``)."""


# --- degeneracy --------------------------------------------------------------

class SubdivisionFailed(GkzfracError):
    """Could not produce a smooth subdivision of the cone."""


class NegativeExponent(GkzfracError):
    """Chart re-expansion produced a negative exponent."""


# --- input / CLI -------------------------------------------------------------

class ParseError(GkzfracError):
    """Input file is not readable JSON."""


class SchemaError(GkzfracError):
    """Input JSON does not match the expected schema."""


class SemanticError(GkzfracError):
    """Input is schema-valid but internally inconsistent."""


class ConfigError(GkzfracError):
    """An environment setting does not hold a valid value."""
