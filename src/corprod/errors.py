"""Exception hierarchy shared by all corprod modules."""


class CorprodError(Exception):
    """Base class for all library errors."""


class InvariantViolation(CorprodError):
    """A structural invariant of a domain object does not hold."""


class SizeCapExceeded(CorprodError):
    """A computation would exceed the configured size cap."""


# The bound of every input-keyed cache in the package.  It sits here,
# beside the size caps, because every layer imports this module and it
# imports none of them: a cache in ``groups`` or ``presentation`` need
# not import the Z/p^k layer for a constant.  A full corpus run keeps
# at most about 410 entries in the largest cache, so nothing is evicted.
MEMO_SIZE = 1024


class NotASubgroup(InvariantViolation):
    """The given element set is not a subgroup of its parent."""


class NotNormal(InvariantViolation):
    """The given subgroup is not normal where normality is required."""


class SpecFileError(CorprodError):
    """A spec file could not be parsed or fails validation."""


class PreconditionError(CorprodError):
    """An operation was called outside its stated domain."""


class VerificationFailure(CorprodError):
    """An internal cross-check that must hold by theory has failed.

    Raised instead of silently returning wrong data; indicates a bug.
    """
