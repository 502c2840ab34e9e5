"""Exception taxonomy for the torsod package.

Validation errors carry enough context (offending index, expected vs actual)
to be surfaced verbatim by the CLI.  The CLI maps every error here to exit
code 2, except :class:`OracleBoxError`, the only one that exits 1.
"""


class TorsodError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TorsodError):
    """Input data violates a structural or arithmetic contract."""


class RelationViolated(ValidationError):
    """The weighted ray relation sum(a_i * v_i) = 0 fails."""


class NotCoprime(ValidationError):
    """The coefficient vector is not coprime."""


class SignPattern(ValidationError):
    """Coefficients do not follow the (+ ... + 0 ... 0 -) sign layout."""


class NonPrimitiveRay(ValidationError):
    """A ray generator is zero or has a nontrivial content gcd."""


class DuplicateRay(ValidationError):
    """Two rays of a datum or fan coincide."""


class NonSimplicial(ValidationError):
    """A maximal cone has linearly dependent rays or too many of them."""


class SchemaError(ValidationError):
    """A JSON document does not match its schema; message names the field."""


class RequiresExtraction(TorsodError):
    """Operation is only defined when the datum classifies as Extraction."""


class DegenerateDatum(TorsodError):
    """Rays of the datum do not span a simplicial configuration."""


class OracleBoxError(TorsodError):
    """Cohomology was asked of an incomplete fan, where it need not be finite."""


class DepthExceeded(TorsodError):
    """A target's Koszul descent is longer than the configured depth bound."""


class UnknownExample(TorsodError):
    """No canned model with the requested name."""


class ModelMismatch(TorsodError):
    """Two fans are not related by a single-ray star subdivision."""
