"""Exception hierarchy shared across the package."""


class ChainfolioError(Exception):
    """Base class for all domain errors raised by this package."""


class DataError(ChainfolioError):
    """Bad, missing, or inconsistent market/metric data."""


class ConfigError(ChainfolioError):
    """A configuration value outside its documented domain."""


class SerializationError(ChainfolioError):
    """A container (a module file or a store sidecar) that cannot be read."""
