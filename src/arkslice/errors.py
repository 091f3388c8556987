"""Exception hierarchy shared by every arkslice module.

Each class declares the HTTP status (``http_status``) and CLI exit code
(``exit_code``) both front ends answer it with: 400 for a bad request,
404 for a name that is not there, 500 otherwise; exit 1, or 2 for an
internal failure (``PersistenceError``).
"""


class ArksliceError(Exception):
    """Base class for all errors raised by this package."""
    http_status = 500
    exit_code = 1


# --- config ---

class ConfigError(ArksliceError):
    """The service config names a key, NAAN or source it cannot honour."""


# --- PID grammar ---

class MalformedPid(ArksliceError):
    """The PID string does not match the grammar."""
    http_status = 400


class InvalidRange(ArksliceError):
    """A range term has reversed or non-integer bounds."""
    http_status = 400


class DuplicateName(ArksliceError):
    """A sensor or measurement name is repeated within one PID."""
    http_status = 400


class BadNaan(ArksliceError):
    """The NAAN component is not a nonempty decimal-digit string."""
    http_status = 400


class InvariantViolation(ArksliceError):
    """A PidQuery handed to the serializer breaks a structural invariant."""


# --- timeseries store ---

class IoError(ArksliceError):
    """A sensor file could not be read."""


class DuplicateTimestamp(ArksliceError):
    """Two rows share the same timestamp key."""


class NonIntegerTimestamp(ArksliceError):
    """A timestamp cell is not an integer."""


class RaggedRow(ArksliceError):
    """A data row's field count differs from the header's."""


class EmptyFile(ArksliceError):
    """The sensor file has no header line."""


class UnknownSensor(ArksliceError):
    """A requested sensor does not exist in the dataset."""
    http_status = 404


class UnknownMeasurement(ArksliceError):
    """A requested measurement does not exist in a sensor table."""
    http_status = 404


# --- type registry ---

class EmptyColumn(ArksliceError):
    """No numeric values remain after filtering."""


# --- catalog ---

class DuplicateDataset(ArksliceError):
    """Dataset name already registered under a different source."""


class LoadError(ArksliceError):
    """Dataset registration failed while loading sensor files."""


class NotFound(ArksliceError):
    """No catalog entry (or binding) for the requested name."""
    http_status = 404


# --- resolver ---

class UnknownNaan(ArksliceError):
    """The resolver is not configured to serve this NAAN."""
    http_status = 404


class InvalidTarget(ArksliceError):
    """A mint target is empty or neither a URL nor a parseable PID."""
    http_status = 400


class PersistenceError(ArksliceError):
    """The mint log could not be written."""
    exit_code = 2


class TooFewRows(ArksliceError):
    """Fewer timestamps than folds requested."""
