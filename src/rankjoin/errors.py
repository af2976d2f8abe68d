"""Exception hierarchy shared across the package."""


class RankJoinError(Exception):
    """Base error for the rankjoin package."""


class IngestError(RankJoinError):
    """Malformed input file (bad row, bad weight, conflicting duplicates)."""


class SchemaError(RankJoinError):
    """Reference to an unknown column or relation."""


class QueryParseError(RankJoinError):
    """Query text does not parse or fails validation."""


class CyclicQueryError(RankJoinError):
    """GYO reduction got stuck; the query is not alpha-acyclic."""

    def __init__(self, message, residue=()):
        super().__init__(message)
        self.residue = tuple(residue)


class DecompositionError(RankJoinError):
    """A decomposition violates coverage, running intersection or tree shape."""


class WeightError(RankJoinError):
    """Weights violate a ranking requirement (e.g. non-positive under product)."""


class OracleCapError(RankJoinError):
    """Brute-force result would exceed the configured cap."""


class ProbeCapError(RankJoinError):
    """Decomposability probe instance exceeds the exhaustive-search cap."""


class EngineInvariantError(RankJoinError):
    """Internal engine invariant violated; indicates a bug, not bad input."""
