"""Exception types shared across the package."""


class CarveqError(Exception):
    """Base class for all package-specific errors."""


class ClauseViolation(CarveqError):
    """A candidate pair (x, y) failed one of the three membership clauses."""

    def __init__(self, clause, witness):
        self.clause = clause
        self.witness = witness
        super().__init__(f"membership clause ({clause}) violated, witness {witness}")


class StructuralMismatch(CarveqError):
    """Code combination outside the closed algebra accepted by this API."""


class DomainViolation(CarveqError):
    """A value was passed to a relation handle outside its declared domain."""


class ResourceLimit(CarveqError):
    """An enumeration needs more steps than ``invariants.ENUM_CAP``."""


class ParseError(CarveqError):
    """Malformed serialized code."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")
