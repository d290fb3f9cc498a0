"""Exception hierarchy shared by all modules.

Protocol code raises narrow subclasses so callers (and the CLI exit-code
mapping) can tell configuration mistakes from mid-protocol failures.
"""


class SecregressError(Exception):
    """Base class for every error raised by this package."""


class InputError(SecregressError):
    """A configuration or input the program cannot run with (exit 2)."""


# ring / fixed point

class MagnitudeOverflow(InputError):
    """Value too large for the fixed-point encoding window."""


class DimensionMismatch(SecregressError):
    """Matrix dimensions incompatible with the requested operation."""


# sharing

class InvalidPartyCount(SecregressError):
    """Secret sharing needs at least two parties."""


# transport

class TransportError(SecregressError):
    """Base class for session and channel failures."""


class ConnectTimeout(TransportError):
    pass


class RosterMismatch(TransportError):
    """Peer disagrees about party count, ids, or roster digest."""


class UnexpectedKind(TransportError):
    """Next frame on the channel does not match the expected kind/round."""


class PeerClosed(TransportError):
    pass


class DeserializeError(TransportError):
    pass


# smm

class TripleExhausted(SecregressError):
    """A party's triple halves ran out before its products did."""


class MalformedTranscript(SecregressError):
    """Transcript does not look like a recorded SMM run."""


# protocols

class PolicyMismatch(InputError):
    """Parties disagree on schedule, owner policy, or training config."""


class SampleCountMismatch(SecregressError):
    """Vertically partitioned inputs must hold the same aligned rows."""


class LabelDomainError(InputError):
    """Logistic labels must be 0/1."""


class BatchTooLarge(InputError):
    pass


# baseline

class NonFiniteLoss(SecregressError):
    """Divergence guard for the plaintext SGD reference."""


class EmptyInput(InputError):
    pass


class SingleClassError(SecregressError):
    """AUC needs both classes present."""


# cli / ingestion

class ParseError(InputError):
    """CSV cell failed to parse; message names the row/column."""


class MissingLabelColumn(InputError):
    pass


class TooFewRows(InputError):
    pass


class TooFewColumns(InputError):
    pass


class SpecHashMismatch(InputError):
    """Party processes were launched with different run specs."""


class PartyCrashed(SecregressError):
    pass


class HashMismatch(SecregressError):
    """Parties reconstructed different models from the same run."""
