"""Correctness gate: every checked operation counts as attempted, every
failed check as failed, and the run exits non-zero if any failed."""

from __future__ import annotations


class Gate:
    def __init__(self, keep: int = 20) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._keep = keep

    def check(self, ok: bool, message: str) -> bool:
        """Record one operation's outcome; ``message`` says what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self._keep:
                self.messages.append(message)
        return bool(ok)

    def fail(self, count: int, message: str) -> None:
        """Record ``count`` operations that failed without an answer."""
        self.attempted += count
        self.failed += count
        if count and len(self.messages) < self._keep:
            self.messages.append(message)
