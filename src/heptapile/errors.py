"""Shared exception types."""


class CapacityError(ValueError):
    """A ball beyond radius 19 (int32 neighbor ids), physical memory or int64 counts."""


class FormatError(ValueError):
    """A serialized stream is malformed, inconsistent, or fails its checksum."""


class InvariantError(RuntimeError):
    """A structural invariant that should hold by construction was violated."""
