"""Deterministic machine-readable check reports.

status is "pass" exactly when the violation list is empty.  Timing is
measured but never serialized to JSON: reports must be byte-identical
across runs for fixed inputs and seeds.
"""

from __future__ import annotations

import json


class Violation:
    __slots__ = ("location", "residual", "message")

    def __init__(self, location: str, residual: str, message: str):
        self.location = location
        self.residual = residual
        self.message = message

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.location, self.residual, self.message) == (
            other.location, other.residual, other.message
        )

    def __repr__(self):
        return (
            f"Violation(location={self.location!r}, residual={self.residual!r}, "
            f"message={self.message!r})"
        )

    def to_dict(self):
        return {
            "location": self.location,
            "residual": self.residual,
            "message": self.message,
        }


class CheckReport:
    __slots__ = ("command", "violations", "witness", "info", "timing_ms")

    def __init__(
        self,
        command: str,
        violations: list | None = None,
        witness: dict | None = None,
        info: dict | None = None,
        timing_ms: float | None = None,
    ):
        self.command = command
        self.violations = [] if violations is None else violations
        self.witness = witness
        self.info = info
        self.timing_ms = timing_ms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.command, self.violations, self.witness, self.info, self.timing_ms) == (
            other.command, other.violations, other.witness, other.info, other.timing_ms
        )

    def __repr__(self):
        return (
            f"CheckReport(command={self.command!r}, violations={self.violations!r}, "
            f"witness={self.witness!r}, info={self.info!r}, timing_ms={self.timing_ms!r})"
        )

    @property
    def status(self) -> str:
        return "pass" if not self.violations else "fail"

    def add(self, location, residual="", message=""):
        self.violations.append(Violation(location, str(residual), message))

    def merge(self, other: "CheckReport", prefix=""):
        for v in other.violations:
            self.violations.append(
                Violation(prefix + v.location, v.residual, v.message)
            )

    def ok(self) -> bool:
        return not self.violations

    def to_dict(self):
        out = {
            "command": self.command,
            "status": self.status,
            "violations": [v.to_dict() for v in self.violations],
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.info is not None:
            out["info"] = self.info
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def text(self) -> str:
        lines = [f"[{self.status.upper()}] {self.command}"]
        for v in self.violations:
            lines.append(f"  at {v.location}: {v.message}")
            if v.residual:
                lines.append(f"    residual: {v.residual}")
        if self.info:
            for k, v in sorted(self.info.items()):
                lines.append(f"  {k}: {v}")
        if self.timing_ms is not None:
            lines.append(f"  ({self.timing_ms:.1f} ms)")
        return "\n".join(lines)
