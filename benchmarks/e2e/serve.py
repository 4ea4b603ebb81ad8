"""The serve-mixed workload: reads beside writes on the serving stack.

Set-up renders the program, solves it once and saves a
``repro-snapshot/2``; then ``python -m repro serve --async --tcp`` is
started several times (``workloads.COLD_STARTS``) with default gateway
settings.  Each start is timed from spawn until the first ``ping`` is
answered (``setup_s``, their median) and until the first read is
answered (``first_ms``, their best; the gateway restores the snapshot
on the first read).  The last gateway started serves the load, which
comes from this one asyncio process over :data:`CONNECTIONS`
connections:

* phase A, open loop — :data:`RATE` requests per second on a fixed
  schedule, each timed from its scheduled send time; the first fifth is
  not scored.  The mix (:data:`MIX`) is 84% reads (``points_to``/
  ``alias``/``callees``/``fields_of``), 8% ``check CK1`` and 8%
  ``update``; see :func:`request_stream`;
* phase B, closed loop — every connection keeps :data:`DEPTH` requests
  of the same mix outstanding; the best rate of completed requests over
  :data:`BUCKET_S` buckets is the capacity (``throughput_per_s``).  An
  open loop near capacity was bimodal from run to run on a 2-core host,
  a closed loop is not.

``p50_ms`` and ``tail_ms`` are medians over phase A's
:data:`WINDOW_S` windows of each window's percentile, and capacity is
the best bucket, because a busy host slows the run down in bursts of
seconds.  Over ten seeds on a busy host this cut the spread
(IQR ÷ median) from 4% to 3% for ``p50_ms``, from 14% to 11% for
``tail_ms`` and from 12% to 9% for capacity, against percentiles over
the whole phase and the median bucket.

Every :data:`PARITY_EVERY`-th phase-A read must equal the answer of an
in-process ``AnalysisService`` restored from the same snapshot, which
replays phase A's stream after the load (outside the timed region);
the traced run times that replay per operation.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import re
import signal
import statistics
import sys
from typing import Dict, Iterator, List, Optional, Tuple

from repro import config_by_name, generate_facts, parse_program
from repro.service.server import handle_request
from repro.service.service import AnalysisService, variables_of

from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import (
    TAIL,
    Shape,
    more_cold_starts,
    peak_rss_mb,
    percentile,
    render,
    sha256,
)

RATE = 300.0
CONNECTIONS = 2
DEPTH = 16
#: Phase A latencies are summarised per window of this many seconds,
#: phase B completions counted per bucket of :data:`BUCKET_S`.
WINDOW_S = 1.0
BUCKET_S = 0.5
PARITY_EVERY = 7
READS = ("points_to", "alias", "callees", "fields_of")
#: A run whose generator sends later than this at p99 is invalid: its
#: latencies would be the generator's.  The generator shares a 2-core
#: host with the gateway and with whatever else runs there; its p99
#: lateness was 1-4 ms on a quiet host and up to 12 ms on a busy one,
#: so the limit catches a generator that cannot keep up, not a busy
#: host.
LATE_LIMIT_MS = 25.0
TENANT = "program"


#: One block of the request mix, repeated: 21 reads, 2 checks and 2
#: updates at fixed places, so every seed sends the same sequence of
#: operations and only their operands differ.
MIX = ("read",) * 5 + ("check",) + ("read",) * 5 + ("update",) \
    + ("read",) * 5 + ("check",) + ("read",) * 5 + ("update",) + ("read",)


def request_stream(facts, seed: int) -> Iterator[Dict]:
    """The seeded request mix, ids counting from 0.

    Reads cycle through the four read operations.  Updates alternate:
    one adds an ``assign`` from a random variable into a fresh sink
    variable that no read names, the next removes it again, so the
    program does not grow over a run and no read answer depends on the
    updates (in whatever order they land).
    """
    rng = random.Random(seed)
    variables = sorted(variables_of(facts))
    sites = sorted(
        {row[0] for row in facts.virtual_invoke}
        | {row[0] for row in facts.static_invoke}
    )
    heaps = sorted({row[0] for row in facts.assign_new})
    reads = updates = 0
    edge = None
    for index in itertools.count():
        slot = MIX[index % len(MIX)]
        if slot == "read":
            kind = READS[reads % len(READS)]
            reads += 1
            if kind == "points_to":
                request = {"op": kind, "var": rng.choice(variables)}
            elif kind == "alias":
                request = {
                    "op": kind,
                    "a": rng.choice(variables),
                    "b": rng.choice(variables),
                }
            elif kind == "callees":
                request = {"op": kind, "site": rng.choice(sites)}
            else:
                request = {"op": kind, "heap": rng.choice(heaps)}
        elif slot == "check":
            request = {"op": "check", "checks": ["CK1"]}
        else:
            if updates % 2 == 0:
                edge = [rng.choice(variables), "e2e_sink_%d" % index]
                delta = {"added": {"assign": [edge]}}
            else:
                delta = {"removed": {"assign": [edge]}}
            updates += 1
            request = {"op": "update", "delta": delta}
        request["id"] = index
        yield request


async def _call(reader, writer, request: Dict) -> Dict:
    writer.write(json.dumps(request).encode("utf-8") + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


class Gateway:
    """One ``repro serve --async`` child process."""

    def __init__(self, process, host: str, port: int, drain_task):
        self.process = process
        self.host = host
        self.port = port
        self._drain_task = drain_task

    @classmethod
    async def start(cls, snapshot: str, first_request: Dict
                    ) -> Tuple["Gateway", float, float]:
        """Spawn one gateway; returns it with the seconds from spawn
        until its first ``ping`` answer and until its first read answer
        (the first read restores the snapshot)."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve", "--async",
            "--tcp", "127.0.0.1:0",
            "--snapshot", "%s=%s" % (TENANT, snapshot),
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
        )
        try:
            while True:
                line = await asyncio.wait_for(
                    process.stderr.readline(), timeout=60
                )
                if not line:
                    raise RuntimeError("gateway exited before listening")
                bound = re.search(rb"listening on ([\d.]+):(\d+)", line)
                if bound:
                    break
        except BaseException:
            process.kill()
            await process.wait()
            raise
        gateway = cls(
            process, bound.group(1).decode(), int(bound.group(2)),
            loop.create_task(cls._drain(process.stderr)),
        )
        try:
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            try:
                if (await _call(reader, writer, {"id": -1, "op": "ping"})
                        ).get("ok") is not True:
                    raise RuntimeError("gateway ping failed")
                ready = loop.time()
                answer = await _call(reader, writer, first_request)
                first = loop.time()
                if answer.get("ok") is not True:
                    raise RuntimeError("gateway first read failed")
            finally:
                writer.close()
                await writer.wait_closed()
        except BaseException:
            await gateway.stop()
            raise
        return gateway, ready - start, first - start

    @staticmethod
    async def _drain(stream) -> None:
        while await stream.readline():
            pass

    async def stop(self) -> None:
        """SIGTERM (the gateway drains), then wait for the exit."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.process.wait(), timeout=30)
            except asyncio.TimeoutError:
                self.process.kill()
                await self.process.wait()
        await self._drain_task


class OpenLoop:
    """Phase A: requests sent on a fixed schedule, pipelined."""

    def __init__(self, requests: List[Dict], rate: float, scored_from: float):
        self.requests = requests
        self.rate = rate
        self.scored_from = scored_from
        #: id -> (op, latency seconds, ok, result) for scored requests.
        self.samples: Dict[int, Tuple[str, float, bool, object]] = {}
        self.late: List[float] = []
        self.answered = 0
        self.not_ok = 0

    def windows(self) -> List[List[float]]:
        """Scored latencies grouped by the :data:`WINDOW_S` window of
        their scheduled send time."""
        out: Dict[int, List[float]] = {}
        for request_id, (_op, latency, _ok, _result) in self.samples.items():
            offset = request_id / self.rate - self.scored_from
            out.setdefault(int(offset / WINDOW_S), []).append(latency)
        return list(out.values())

    async def run(self, host: str, port: int, connections: int) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time() + 0.05
        lanes = [self.requests[k::connections] for k in range(connections)]
        await asyncio.gather(*[
            self._lane(host, port, lane, t0) for lane in lanes
        ])

    async def _lane(self, host, port, lane: List[Dict], t0: float) -> None:
        loop = asyncio.get_running_loop()
        reader, writer = await asyncio.open_connection(host, port)
        due: Dict[int, Tuple[float, str]] = {}

        async def read() -> None:
            for _ in lane:
                raw = await reader.readline()
                if not raw:
                    return
                response = json.loads(raw)
                scheduled, op = due.pop(response["id"])
                ok = response.get("ok") is True
                self.answered += 1
                self.not_ok += not ok
                if scheduled - t0 >= self.scored_from:
                    self.samples[response["id"]] = (
                        op, loop.time() - scheduled, ok,
                        response.get("result"),
                    )

        reading = loop.create_task(read())
        try:
            for request in lane:
                scheduled = t0 + request["id"] / self.rate
                delay = scheduled - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                if scheduled - t0 >= self.scored_from:
                    self.late.append(loop.time() - scheduled)
                due[request["id"]] = (scheduled, request["op"])
                writer.write(json.dumps(request).encode("utf-8") + b"\n")
                await writer.drain()
            await asyncio.wait_for(reading, timeout=60)
        finally:
            reading.cancel()
            writer.close()
            await writer.wait_closed()


async def closed_loop(host: str, port: int, stream: Iterator[Dict],
                      seconds: float, warmup: float, connections: int,
                      depth: int) -> Tuple[int, List[float], int]:
    """Phase B; returns (requests sent, completed requests per second in
    each :data:`BUCKET_S` bucket after ``warmup``, answers not ok)."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    scored_from, end = start + warmup, start + seconds
    buckets = [0] * max(1, int((seconds - warmup) / BUCKET_S))
    counts = {"sent": 0, "not_ok": 0}

    async def lane() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            outstanding = 0
            for _ in range(depth):
                writer.write(json.dumps(next(stream)).encode() + b"\n")
                outstanding += 1
            counts["sent"] += depth
            await writer.drain()
            while outstanding:
                raw = await asyncio.wait_for(reader.readline(), timeout=60)
                if not raw:
                    raise RuntimeError("gateway closed the connection")
                outstanding -= 1
                now = loop.time()
                if json.loads(raw).get("ok") is not True:
                    counts["not_ok"] += 1
                elif scored_from <= now:
                    bucket = int((now - scored_from) / BUCKET_S)
                    if bucket < len(buckets):
                        buckets[bucket] += 1
                if now < end:
                    writer.write(json.dumps(next(stream)).encode() + b"\n")
                    await writer.drain()
                    outstanding += 1
                    counts["sent"] += 1
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*[lane() for _ in range(connections)])
    return counts["sent"], [n / BUCKET_S for n in buckets], counts["not_ok"]


def replay(snapshot: str, requests: List[Dict], tracer: Tracer
           ) -> Tuple[Dict[int, object], AnalysisService]:
    """Phase A's stream in-process, in order, against a service restored
    from the same snapshot; returns each read's answer."""
    with tracer.span("service.restore"):
        service = AnalysisService.from_snapshot(snapshot)
    answers: Dict[int, object] = {}
    for request in requests:
        with tracer.span("service." + request["op"]):
            response = handle_request(service, request)
        if request["op"] in READS:
            # The wire form: what the gateway would have sent.
            answers[request["id"]] = json.loads(json.dumps(
                response.get("result")
            ))
    return answers, service


async def _run(shape: Shape, seed: int, seconds: float, tracer: Tracer,
               expected, workdir: str) -> Dict:
    config_name, _ = shape.configs[0]
    source = render(shape.programs[0], shape.scale, seed)
    notes: List[str] = []
    pinned = expected["sources"].get(source.key)
    source_ok = pinned is None or pinned == sha256(source.text)
    if not source_ok:
        notes.append("wrong: source %s" % source.key)
    snapshot = os.path.join(workdir, "program.snap")
    with tracer.span("setup"):
        with tracer.span("frontend.parse"):
            program = parse_program(source.text)
        with tracer.span("frontend.factgen") as span:
            facts = generate_facts(program)
        span["facts"] = sum(facts.counts().values())
        with tracer.span("core.solver.ts"):
            service = AnalysisService.from_facts(
                facts, config_by_name(config_name)
            )
        with tracer.span("service.snapshot_save"):
            service.save_snapshot(snapshot)
    stream = request_stream(facts, seed)
    first_request = {"id": -2, "op": "points_to",
                     "var": sorted(variables_of(facts))[0]}

    phase_a = phase_b = max(1.0, seconds / 2)
    requests = list(itertools.islice(stream, int(RATE * phase_a)))
    open_loop = OpenLoop(requests, RATE, scored_from=phase_a / 5)

    setups: List[float] = []
    firsts: List[float] = []
    gateway: Optional[Gateway] = None
    stats: Dict = {}
    try:
        while more_cold_starts(firsts):
            if gateway is not None:
                await gateway.stop()
            gateway, setup, first = await Gateway.start(
                snapshot, first_request
            )
            setups.append(setup)
            firsts.append(first)
        await open_loop.run(gateway.host, gateway.port, CONNECTIONS)
        if tracer.enabled:
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            try:
                stats["gateway"] = (await _call(
                    reader, writer, {"id": -3, "op": "stats"}
                ))["result"]
                stats["tenant"] = (await _call(
                    reader, writer,
                    {"id": -4, "op": "stats", "tenant": TENANT},
                ))["result"]
            finally:
                writer.close()
                await writer.wait_closed()
        sent_b, rates_b, not_ok_b = await closed_loop(
            gateway.host, gateway.port, stream, phase_b, phase_b / 10,
            CONNECTIONS, DEPTH,
        )
        peak_rss = peak_rss_mb(str(gateway.process.pid))
    finally:
        if gateway is not None:
            await gateway.stop()

    expected_answers, replayed = replay(snapshot, requests, tracer)
    mismatched = [
        request_id for request_id, (op, _lat, ok, result)
        in open_loop.samples.items()
        if op in READS and request_id % PARITY_EVERY == 0
        and result != expected_answers[request_id]
    ]
    notes.extend("parity: request %d" % i for i in sorted(mismatched))
    unanswered = len(requests) - open_loop.answered
    failed = (
        open_loop.not_ok + unanswered + not_ok_b + len(mismatched)
        + (0 if source_ok else 1)
    )
    late_p99_ms = percentile(open_loop.late, 0.99) * 1000.0
    windows = open_loop.windows()
    result = {
        "attempted": len(requests) + sent_b,
        "failed": failed,
        "notes": notes,
        "invalid": (
            "generator ran %.2f ms late at p99 (limit %.0f ms)"
            % (late_p99_ms, LATE_LIMIT_MS)
            if late_p99_ms > LATE_LIMIT_MS else None
        ),
    }
    if tracer.enabled:
        stats["replay"] = replayed.stats()
        result["metrics"] = _layer_metrics(
            tracer, stats, open_loop, snapshot, late_p99_ms
        )
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "first_ms": min(firsts) * 1000.0,
            "p50_ms": statistics.median(
                percentile(window, 0.5) for window in windows
            ) * 1000.0,
            "tail_ms": statistics.median(
                percentile(window, TAIL) for window in windows
            ) * 1000.0,
            "throughput_per_s": max(rates_b),
            "peak_rss_mb": peak_rss,
        }
    return result


def _layer_metrics(tracer: Tracer, stats: Dict, open_loop: OpenLoop,
                   snapshot: str, late_p99_ms: float) -> Dict[str, float]:
    self_times = tracer.self_times()
    by_name: Dict[str, List[float]] = {}
    for span, seconds in zip(tracer.spans, self_times):
        by_name.setdefault(span["name"], []).append(seconds)
    facts = next(
        span["attrs"]["facts"] for span in tracer.spans
        if span["name"] == "frontend.factgen"
    )

    def p50(*names: str) -> float:
        values = [v for name in names for v in by_name.get(name, [])]
        return percentile(values, 0.5)

    reads = [
        sample[1] for sample in open_loop.samples.values()
        if sample[0] in READS
    ]
    query_p50_us = p50(*("service." + op for op in READS)) * 1e6
    gateway, tenant = stats["gateway"], stats["tenant"]
    updates = tenant["updates"]
    return {
        "frontend.parse_s": sum(by_name["frontend.parse"]),
        "frontend.factgen_s": sum(by_name["frontend.factgen"]),
        "frontend.facts": facts,
        "core.solver.ts_s": sum(by_name["core.solver.ts"]),
        "service.restore_s": sum(by_name["service.restore"]),
        "service.snapshot_save_s": sum(by_name["service.snapshot_save"]),
        "service.snapshot_kb": os.path.getsize(snapshot) / 1024.0,
        "service.query_p50_us": query_p50_us,
        "service.update_p50_ms": p50("service.update") * 1000.0,
        "service.check_p50_ms": p50("service.check") * 1000.0,
        "service.cache_hit_rate": stats["replay"]["cache"]["hit_rate"],
        "incremental.fallbacks": updates["fallbacks"],
        "incremental.fallback_ratio": (
            updates["fallbacks"] / updates["applied"]
            if updates["applied"] else 0.0
        ),
        "serve.gateway.batch_mean": gateway["batches"]["mean_size"] or 0.0,
        "serve.gateway.queue_max_depth": gateway["queue"]["max_depth"],
        "serve.gateway.errors": sum(gateway["errors"].values()),
        "serve.gateway.overhead_ms": (
            percentile(reads, 0.5) * 1000.0 - query_p50_us / 1000.0
        ),
        "loadgen.late_p99_ms": late_p99_ms,
        "trace.overhead_pct": tracer.overhead_pct(),
    }


def run(shape: Shape, seed: int, seconds: float, tracer: Tracer,
        expected, workdir: str) -> Dict:
    return asyncio.run(_run(shape, seed, seconds, tracer, expected, workdir))
