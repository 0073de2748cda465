"""Open-loop Poisson load generator (the benchmark's own, not repro's).

One asyncio task sends requests at exponentially distributed gaps,
regardless of how fast answers come back, so a slow system sees its
queue grow instead of receiving less load.  Each request is timed from
the instant it was *due*, which charges a generator stall to every
request it delayed; how late the generator itself ran is reported per
step so a step measured by a lagging generator can be discarded.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

import numpy as np

from hpdrbench.stats import percentile


@dataclass
class StepResult:
    """What one fixed-rate step offered, completed and measured."""

    rate: float
    offered: int = 0
    completed: int = 0
    failed: int = 0
    aborted: bool = False
    #: the queue in the last quarter of a step was clearly longer than
    #: in its first quarter (the system fell behind).
    grew: bool = False
    duration_s: float = 0.0
    #: time between the first and the last due instant, and the number
    #: of steps pooled into this result.
    due_span_s: float = 0.0
    parts: int = 1
    #: ``(request index, latency)`` of every completed request.
    timed: list[tuple[int, float]] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    #: ``(request index, answer)`` for the post-step correctness check.
    outputs: list[tuple[int, Any]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def latencies_ms(self) -> list[float]:
        """Latencies in the order the requests were due."""
        return [lat for _, lat in sorted(self.timed)]

    @property
    def backlog_growing(self) -> bool:
        return self.aborted or self.grew

    @property
    def realized_rate(self) -> float:
        """Offered rate as the generator realized it."""
        gaps = self.offered - self.parts
        return gaps / self.due_span_s if gaps > 0 and self.due_span_s else 0.0

    def absorb(self, other: "StepResult") -> None:
        """Pool a later step at the same rate into this one."""
        self.offered += other.offered
        self.completed += other.completed
        self.failed += other.failed
        self.aborted = self.aborted or other.aborted
        self.grew = self.grew or other.grew
        self.duration_s += other.duration_s
        self.due_span_s += other.due_span_s
        self.parts += other.parts
        self.timed += other.timed
        self.late_ms += other.late_ms
        self.outputs += other.outputs
        self.errors += other.errors

    def late_p99_ms(self) -> float:
        """Generator lateness at p99 (the maximum when too few sends)."""
        if len(self.late_ms) >= 1000:
            return percentile(self.late_ms, 99)
        return max(self.late_ms, default=0.0)


async def run_step(
    request: Callable[[int], Awaitable[Any]],
    rate: float,
    count: int,
    rng: np.random.Generator,
    inflight_cap: int,
    first_index: int = 0,
    fail_after: int | None = None,
    fail_ms: float = float("inf"),
) -> StepResult:
    """Offer ``count`` requests at Poisson rate ``rate`` and await all.

    ``request(i)`` performs request ``i`` and returns its answer.  The
    step stops offering (``aborted``) when ``inflight_cap`` requests are
    outstanding -- the system is past saturation, and shedding by the
    service's own admission control would only add refusals -- or when
    ``fail_after`` requests have taken longer than ``fail_ms``, which
    already decides that the step misses its latency limit.
    """
    loop = asyncio.get_running_loop()
    res = StepResult(rate=rate)
    gaps = rng.exponential(1.0 / rate, count)
    start = loop.time() + 0.005
    due = start + np.cumsum(gaps)
    tasks: list[asyncio.Task[None]] = []
    inflight: list[int] = []  # outstanding requests at every send
    outstanding = 0
    slow = 0

    async def one(i: int, due_at: float) -> None:
        nonlocal outstanding, slow
        try:
            answer = await request(first_index + i)
        except Exception as exc:  # a refused or failed request
            res.failed += 1
            res.errors.append(f"{type(exc).__name__}: {exc}")
        else:
            latency = (loop.time() - due_at) * 1e3
            res.timed.append((i, latency))
            res.completed += 1
            res.outputs.append((first_index + i, answer))
            if latency > fail_ms:
                slow += 1
                if fail_after is not None and slow >= fail_after:
                    res.aborted = True
        finally:
            outstanding -= 1

    i = 0
    while i < count and not res.aborted:
        now = loop.time()
        if due[i] > now:
            await asyncio.sleep(due[i] - now)
            continue
        while i < count and due[i] <= now:
            if outstanding >= inflight_cap:
                res.aborted = True
                break
            res.late_ms.append((now - due[i]) * 1e3)
            inflight.append(outstanding)
            outstanding += 1
            tasks.append(loop.create_task(one(i, float(due[i]))))
            i += 1
    res.offered = len(tasks)
    if res.offered:
        res.due_span_s = float(due[res.offered - 1] - due[0])
    q = len(inflight) // 4
    if q >= 10:
        res.grew = sum(inflight[-q:]) / q > 2.0 * sum(inflight[:q]) / q + 4.0
    await asyncio.gather(*tasks)
    res.duration_s = loop.time() - start
    return res
