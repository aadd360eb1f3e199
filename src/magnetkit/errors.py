"""Exception hierarchy.

Everything raised on purpose by this package derives from MagnetError, so
callers (and the CLI) can map failure classes to exit codes without string
matching.
"""


class MagnetError(Exception):
    """Base class for all magnet-kit errors."""


class StructuralError(MagnetError):
    """Objects that cannot be combined (ambient mismatch, bad coordinates,
    malformed presentations), or two routes to one result that disagree."""


def crosscheck(ok, message, *args):
    """Raise StructuralError(message % args) unless ok, also under python -O:
    the one check through which every result computed two ways is compared.

    The message is formatted only when the check fails, so pass the objects
    it names (a monoid N for %s, not N.describe()) and a check that passes
    costs nothing beyond ok itself."""
    if not ok:
        raise StructuralError(message % args)


class PreconditionError(MagnetError):
    """An operation's documented precondition does not hold for the input."""


class SharpenRequiredError(PreconditionError):
    """The coordinate monoid has nontrivial units; pass it through
    sharp_quotient first."""


class NoCertificateError(PreconditionError):
    """No positive grading certificate exists (or none was found within the
    configured search box)."""


class NotACocycleError(MagnetError):
    """primitive() was asked to integrate a non-cocycle; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceLimitError(MagnetError):
    """A completion/enumeration hit its configured cap.  Never a wrong answer:
    the computation is abandoned, not approximated."""


class SchemaError(MagnetError):
    """A problem file failed validation against the published JSON schema."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
