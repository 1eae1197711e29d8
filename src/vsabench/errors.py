"""Exception hierarchy shared across the package."""


class VsabenchError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(VsabenchError, ValueError):
    """An argument violates a documented precondition (bad dim, mismatch, ...)."""


class DegenerateInputError(VsabenchError, ValueError):
    """Input is structurally valid but numerically degenerate (e.g. zero vector)."""


class InvalidStateError(VsabenchError, RuntimeError):
    """Operation called on an object in a state that cannot serve it."""


class ConfigError(VsabenchError, ValueError):
    """A configuration is internally inconsistent (e.g. misaligned patch grids)."""


class VsafError(VsabenchError):
    """Base class for VSAF file format errors."""


class BadMagicError(VsafError):
    """File does not start with the VSAF magic bytes."""


class VersionError(VsafError):
    """File declares an unsupported format version."""


class TruncatedPayloadError(VsafError):
    """File ends before the header-declared payload is complete."""


class DimensionOverflowError(VsafError):
    """Header declares tensor dimensions too large to represent safely."""


class CorruptContentError(VsafError):
    """File is well framed, but a layer name is not UTF-8 or repeats, a value is not
    finite, or the layers do not have the layout the reader expects."""
