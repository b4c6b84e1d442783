"""Exception types shared across the package."""


class PricetreeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(PricetreeError):
    """A configuration value violates a documented constraint."""


class CertificationError(PricetreeError):
    """A generated instance failed its independent label certification."""


class DatasetParseError(PricetreeError):
    """A corpus or records file could not be parsed; message names the line."""


class TransportError(PricetreeError):
    """A model transport failed permanently."""


class TransientTransportError(TransportError):
    """A model transport failed in a way that is worth retrying."""
