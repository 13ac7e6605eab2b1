"""Exception hierarchy shared by all subsystems."""


class PettisForgeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PettisForgeError, ValueError):
    """Malformed configuration, archive, or CLI input (exit code 2)."""


class LevelOverflowError(PettisForgeError, ValueError):
    """A dyadic level beyond the exactness guarantee was requested."""


class DegenerateIntervalError(PettisForgeError, ValueError):
    """An operation needed an interval of positive measure."""


class CarrierIndexError(PettisForgeError, KeyError):
    """Carrier lookup outside the family's (level, index) range."""


class MaterializationLimitError(PettisForgeError, RuntimeError):
    """Explicit materialization would exceed the configured part budget."""


class PsiDomainError(PettisForgeError, ValueError):
    """Gauge function evaluated outside its formula domain."""


class GrowthConditionError(PettisForgeError, ValueError):
    """The gauge/sequence pair failed the certified growth validation."""


class LayoutMismatchError(PettisForgeError, ValueError):
    """Block-space operands disagree on exponent or block dimensions."""


class SupportDepthError(PettisForgeError, ValueError):
    """Functional support touches levels beyond the model depth."""


class DepthMismatchError(PettisForgeError, ValueError):
    """Carrier family and coefficient table were built for different depths."""


class DepthInsufficientError(PettisForgeError, ValueError):
    """Model depth does not cover the levels a campaign needs."""


class PairTooCloseError(PettisForgeError, ValueError):
    """Separation query for points closer than the deepest resolved scale."""
