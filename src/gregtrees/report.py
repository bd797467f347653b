"""Check reporting plumbing shared by the series, numeric and suite modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def jsonable(value):
    """Coerce params to JSON-stable primitives (fractions become strings)."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


@dataclass
class CheckReport:
    """Outcome of one named check.

    ``passed`` is None exactly when the check was skipped, by budget or
    filter, and ``skipped`` reads that one field; a witness (a
    human-readable description of the first failure) is present exactly
    when the check failed.  ``seconds``, the wall time `run_suite` measured
    for the check, stays out of equality and of both report forms, which
    are byte-deterministic.
    """

    name: str
    params: dict = field(default_factory=dict)
    passed: bool | None = True
    witness: str | None = None
    seconds: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if (self.witness is not None) != (self.passed is False):
            raise ValueError(f"check {self.name}: witness present iff failed")

    @property
    def skipped(self) -> bool:
        return self.passed is None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": jsonable(self.params),
            "passed": self.passed,
            "witness": self.witness,
            "skipped": self.skipped,
        }

    @classmethod
    def ok(cls, name: str, **params) -> "CheckReport":
        return cls(name=name, params=params, passed=True)

    @classmethod
    def fail(cls, name: str, witness: str, **params) -> "CheckReport":
        return cls(name=name, params=params, passed=False, witness=witness)

    @classmethod
    def skip(cls, name: str) -> "CheckReport":
        return cls(name=name, passed=None)
