"""Exception hierarchy for the whole library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one base type at an API boundary.  Subsystems refine it further (e.g.
``repro.blockchain`` raises :class:`ChainValidationError`); those subsystem
errors also live under this root.
"""


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class SerializationError(ReproError):
    """A value could not be canonically serialized or deserialized."""


class ValidationError(ReproError):
    """A structural or semantic validation check failed."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed or inconsistent."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, MAC mismatch, ...)."""


class NetworkError(ReproError):
    """A simulated-network operation was impossible (unknown host, ...)."""


class PolicyError(ReproError):
    """An access control policy is malformed or cannot be evaluated."""
