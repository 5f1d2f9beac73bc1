"""Exception types shared across the package."""


class SymcontError(Exception):
    """Base class for all package-specific errors."""


class ExactnessError(SymcontError):
    """An operation would leave the exactly representable number field."""


class ParseError(SymcontError):
    """Malformed textual input (numbers, spec files, CLI values)."""


class DomainError(SymcontError):
    """A point or pair falls outside the domain it was claimed to lie in."""


class ConfigurationError(SymcontError):
    """An analysis request combines options the engine does not support."""


class InapplicableError(SymcontError):
    """A check was asked about an object it is not defined for."""
