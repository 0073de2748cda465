"""The serve phase: open-loop Poisson traffic into an in-process service,
one asyncio generator task in one process.  Two targets: ``serve_small``
(one ``ReductionService``, one zfp-x spec on one 16x16 payload; the
``archive`` workload's serve phase) and ``serve_mixed`` (a 2-shard
``ClusterService`` under the 16-spec mixed roster; the ``serve_mixed``
workload's).

Each request is a round trip (compress, then decompress the answer).
Every rate step collects at least 1,000 completed requests; the
answers are checked after the step, off the timed path.  A step's
percentile is the median over its consecutive 1,000-request windows
of each window's percentile.  ``max_rps`` is the highest offered rate
(as the generator realized it) whose step meets the latency limit with
no failed or refused request, no growing backlog and an on-time
generator; it is searched upward from ``hi`` (rate x1.5 until a probe
fails, then bisection).
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from hpdrbench.gate import Gate
from hpdrbench.inputs import mixed_payloads, small_payload
from hpdrbench.loadgen import StepResult, run_step
from hpdrbench.stats import median, windowed_percentile

#: completed requests a step needs before its p99 is reported.
MIN_REQUESTS = 1000
#: tries a search probe gets before its rate counts as failing.
PROBE_ATTEMPTS = 3
#: seconds of unmeasured traffic at ``lo`` before the measured steps:
#: after idle, the shared host hands CPU back to the run gradually.
WARMUP_S = 2.0


@dataclass(frozen=True)
class ServeSettings:
    """Fixed offered rates and limits of one serve target."""

    #: p99 latency limit for ``max_rps``.
    limit_ms: float
    #: fixed offered rates (req/s) of the ``lo`` and ``hi`` steps.
    lo: float
    hi: float
    #: a step whose generator ran later than this at p99 is invalid.
    late_limit_ms: float
    #: share of ``--seconds`` given to each of the ``lo``/``hi`` steps and
    #: to the whole search (a step never collects fewer than
    #: ``MIN_REQUESTS``, which sets the length of the slow steps).
    step_share: float
    search_share: float
    #: rounds of alternating parts each fixed step is split into (a
    #: split pass runs an archive slice after each round).
    rounds: int
    #: probes of the upward ``max_rps`` search.
    probes: int
    #: set-ups per run (the median is reported).
    setups: int


SETTINGS = {
    "serve_small": ServeSettings(limit_ms=50.0, lo=300.0, hi=600.0,
                                 late_limit_ms=10.0, step_share=0.5,
                                 search_share=0.2, rounds=3, probes=5,
                                 setups=25),
    # No max_rps search: its probes need 1,000 requests each at
    # 100-200 req/s, about 20 s a run the time budget does not hold.
    "serve_mixed": ServeSettings(limit_ms=250.0, lo=50.0, hi=65.0,
                                 late_limit_ms=50.0, step_share=0.0,
                                 search_share=0.0, rounds=2, probes=0,
                                 setups=9),
}

#: outstanding requests at which a step stops offering (well below the
#: service's admission limit of 256, so saturation never shows up as
#: refusals).
INFLIGHT_CAP = 200


class Target:
    """The service under load plus its request roster."""

    def __init__(self, target_name: str, seed: int) -> None:
        from repro.serve.spec import CodecSpec

        self.name = target_name
        if target_name == "serve_small":
            self.roster = [(CodecSpec("zfp-x", rate=8.0), small_payload(seed))]
        else:
            from repro.cluster import mixed_specs

            specs = mixed_specs()
            pays = mixed_payloads(seed, [s.name for s in specs])
            self.roster = list(zip(specs, pays))
        self.service: Any = None
        self.expected: list[tuple[bytes, np.ndarray]] = []

    async def start(self) -> float:
        """Construct and start the service, then make the first (cold)
        round trip per codec and shape; returns its wall time."""
        from repro.serve.service import ReductionService, ServiceConfig

        t0 = time.perf_counter()
        if self.name == "serve_small":
            svc: Any = ReductionService(ServiceConfig(tune="off"))
        else:
            from repro.cluster import ClusterConfig, ClusterService

            svc = ClusterService(ClusterConfig(
                shards=2, backend="task", service=ServiceConfig(tune="off")))
        await svc.start()
        self.service = svc
        self.expected = []
        for spec, payload in self.roster:
            blob = await svc.compress(spec, payload)
            back = await svc.decompress(spec, blob)
            self.expected.append((bytes(blob), np.asarray(back)))
        return time.perf_counter() - t0

    async def close(self) -> None:
        if self.service is not None:
            await self.service.close()
            self.service = None

    async def request(self, i: int) -> tuple[bytes, np.ndarray]:
        spec, payload = self.roster[i % len(self.roster)]
        blob = await self.service.compress(spec, payload)
        back = await self.service.decompress(spec, blob)
        return blob, back

    def reference(self) -> list[tuple[bytes, np.ndarray]]:
        """Single-shot answers from a fresh serial codec, computed outside
        the service: every served answer must match them exactly."""
        out = []
        for spec, payload in self.roster:
            codec = spec.build()
            blob = codec.compress(payload)
            out.append((bytes(blob), np.asarray(codec.decompress(blob))))
        return out


def check_step(step: StepResult, target: Target,
               reference: list[tuple[bytes, np.ndarray]], gate: Gate,
               label: str) -> None:
    """Check every answer of a finished step; count refusals/failures."""
    n = len(target.roster)
    for i, (blob, back) in step.outputs:
        want_blob, want_back = reference[i % n]
        spec, payload = target.roster[i % n]
        ok = (bytes(blob) == want_blob and back.shape == want_back.shape
              and back.dtype == want_back.dtype
              and np.array_equal(back, want_back))
        if spec.name in ("huffman-x", "lz4"):
            ok = ok and np.array_equal(back, payload)
        gate.check(ok, f"{label}: {spec.name} answer {i} differs from the "
                       f"single-shot reference")
    if step.failed:
        gate.fail(step.failed, f"{label}: {step.failed} requests failed or "
                               f"were refused: {step.errors[:3]}")


def step_passes(step: StepResult, st: ServeSettings) -> bool:
    if step.failed or step.aborted or step.backlog_growing:
        return False
    if len(step.latencies_ms) < MIN_REQUESTS:
        return False
    if step.late_p99_ms() > st.late_limit_ms:
        return False
    return windowed_percentile(step.latencies_ms, 99) <= st.limit_ms


def step_count(rate: float, seconds: float) -> int:
    return max(MIN_REQUESTS, int(round(rate * seconds)))


async def _run(target_name: str, seed: int, seconds: float, gate: Gate,
               probe: Any, full: bool,
               between: Callable[[], None] | None) -> dict[str, Any]:
    st = SETTINGS[target_name]
    target = Target(target_name, seed)
    reference = target.reference()
    setups: list[float] = []

    async def set_up(count: int) -> None:
        # Set-ups run in three groups spread over the run (start, after
        # the fixed steps, end), so their median sees the same stretch
        # of host conditions as the other metrics.
        for _ in range(count):
            await target.close()
            setups.append(await target.start())
            for k, ((blob, back), (rblob, rback)) in enumerate(
                    zip(target.expected, reference)):
                gate.check(blob == rblob and np.array_equal(back, rback),
                           f"{target_name}: cold answer {k} differs from the "
                           f"reference")
        if probe is not None:
            probe.attach(target.service)

    groups = [st.setups // 3] * 2 + [st.setups - 2 * (st.setups // 3)]
    await set_up(groups[0])
    rng = np.random.default_rng([seed, 4])
    steps: dict[str, StepResult] = {}
    first = 0
    try:
        async def step(label: str, rate: float, count: int,
                       search: bool = False) -> StepResult:
            nonlocal first
            if probe is not None:
                probe.begin(label)
            # A search probe stops as soon as more than 1% of its
            # requests missed the limit (its p99 already fails); the
            # fixed steps always run to the end for their percentiles.
            res = await run_step(target.request, rate, count, rng,
                                 INFLIGHT_CAP, first_index=first,
                                 fail_after=count // 100 + 1 if search else None,
                                 fail_ms=st.limit_ms)
            first += count
            if probe is not None:
                probe.end()
            check_step(res, target, reference, gate, f"{target_name}@{rate:g}")
            res.outputs.clear()
            if label in steps:
                steps[label].absorb(res)
            else:
                steps[label] = res
            return res

        await step("warmup", st.lo, int(st.lo * WARMUP_S))
        del steps["warmup"]
        # The fixed steps run as ``rounds`` alternating parts (lo hi,
        # hi lo, ...), so both rates sample the same stretch of host
        # conditions; their parts are pooled.
        fixed = {"lo": st.lo, "hi": st.hi}
        parts = {k: -(-step_count(r, st.step_share * seconds) // st.rounds)
                 for k, r in fixed.items()}
        for r in range(st.rounds):
            for label in (("lo", "hi") if r % 2 == 0 else ("hi", "lo")):
                await step(label, fixed[label], parts[label])
            if between is not None:
                between()  # nothing is in flight; blocking is harmless
        await set_up(groups[1])
        passed = [steps[k] for k in fixed if step_passes(steps[k], st)]
        best = max(passed, key=lambda res: res.rate, default=None)
        # The search brackets by its own probes only: a noise burst that
        # fails a fixed step must not cap the search below ``hi``.
        floor, fail = st.hi, None
        if full and st.probes:
            search_s = st.search_share * seconds / st.probes
            for k in range(st.probes):
                rate = floor * 1.5 if fail is None else 0.5 * (floor + fail)
                # A failure must repeat before it bounds the search: one
                # host stall near the knee spoils a probe, and a probe
                # past the knee stops within a few hundred requests.
                for attempt in range(PROBE_ATTEMPTS):
                    res = await step(f"probe{k}.{attempt}", rate,
                                     step_count(rate, search_s), search=True)
                    if step_passes(res, st):
                        break
                if step_passes(res, st):
                    best, floor = res, rate
                else:
                    fail = rate if fail is None else min(fail, rate)
        await set_up(groups[2])
    finally:
        await target.close()
    out: dict[str, Any] = {"setup_s": median(setups)}
    for label in ("lo", "hi"):
        lat = steps[label].latencies_ms
        out[f"p50_ms.{label}"] = windowed_percentile(lat, 50)
        out[f"p99_ms.{label}"] = windowed_percentile(lat, 99)
    if full and st.probes:
        out["max_rps"] = best.realized_rate if best is not None else 0.0
    out["_steps"] = steps
    return out


def run(target_name: str, seed: int, seconds: float, gate: Gate,
        probe: Any = None, full: bool = True,
        between: Callable[[], None] | None = None) -> dict[str, Any]:
    """One run: set-ups, the ``lo`` and ``hi`` steps and (``full``) the
    ``max_rps`` search, sized from ``seconds`` (see ``ServeSettings``).
    ``between`` is called after each round of fixed steps, with no
    request in flight and the CPU pin lifted.

    The process is pinned to one CPU while it runs.  Generator, event
    loop and worker threads then hand the interpreter lock over on one
    CPU; spread over the two vCPUs of a shared host, every hand-over
    waited on a cross-CPU wake-up, and latency at a fixed rate swung by
    2x from one minute to the next."""
    allowed = os.sched_getaffinity(0)
    pinned = {min(allowed)}

    def unpinned() -> None:
        os.sched_setaffinity(0, allowed)
        try:
            between()
        finally:
            os.sched_setaffinity(0, pinned)

    os.sched_setaffinity(0, pinned)
    try:
        return asyncio.run(_run(target_name, seed, seconds, gate, probe, full,
                                unpinned if between is not None else None))
    finally:
        os.sched_setaffinity(0, allowed)
