"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside an operation's domain."""


class AssumptionError(ValueError):
    """A coefficient sequence violates a required summability assumption."""


class UnsupportedError(ValueError):
    """The requested quantity diverges or is outside the supported model class."""


class ConfigError(ValueError):
    """An experiment config or a sample file is malformed."""
