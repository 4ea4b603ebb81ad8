"""Open-loop serving benchmark: threaded server vs async gateway.

Closed-loop benchmarks (issue, wait, repeat) hide queueing delay: a
slow server simply receives fewer requests, and its latency numbers
look flattering precisely when it is drowning — the coordinated
omission problem.  This workload is **open-loop**: requests arrive on
a fixed schedule (``rate`` per second) whether or not earlier ones
have been answered, and each latency sample is measured from the
request's *scheduled arrival time*, so time spent queueing behind a
saturated server counts against it.

One deterministic request stream (seeded mix of ``points_to`` /
``alias`` / ``callees`` / ``fields_of`` queries, ``check`` runs and
``update`` deltas) is replayed against both serving stacks:

* the threaded ``repro-serve/1`` TCP server
  (:mod:`repro.service.server`) — one OS thread per connection;
* the asyncio ``repro-serve/2`` gateway (:mod:`repro.serve.gateway`)
  — one event loop, micro-batched execution.

Update deltas are *commutative and non-interfering by construction*:
update ``k`` adds an ``assign`` edge into a fresh variable
``lb_extra_<k>`` nobody queries, so the final state is independent of
arrival interleaving and every query answer is independent of how
many updates have landed — which is what lets the harness assert
**bit-identical parity**: every sampled query response must equal the
answer a direct (in-process) :class:`~repro.service.AnalysisService`
gives on the same snapshot.

Reported per target: steady-state (post-warmup) p50/p95/p99 latency,
throughput, SLO attainment at ``slo_ms`` and the derived
``slo_goodput`` (answers per second that met the SLO), plus error
counts by code.  The gateway additionally gets an **overload probe**
(a burst far beyond ``queue_limit`` must produce explicit
``overload`` responses, not timeouts or dropped connections) and the
block records **warm-start economics** (snapshot restore vs cold
solve).  The result embeds as the additive ``serving`` block of
``repro-figure6/9`` and as a ``BENCH_*.json`` trajectory payload.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import config_by_name
from repro.frontend.factgen import FactSet
from repro.perf.registry import corpus_facts
from repro.perf.stats import percentile, to_ms
from repro.service.service import AnalysisService, variables_of

DEFAULT_BENCHMARK = "bloat"
DEFAULT_CONFIGURATION = "1-call"


@dataclass
class LoadSpec:
    """One open-loop run's shape."""

    rate: float = 300.0        # scheduled arrivals per second
    duration_s: float = 4.0    # offered-load window
    warmup_s: float = 1.0      # arrivals before this are not scored
    connections: int = 16      # client connections sharing the stream
    query_fraction: float = 0.84
    check_fraction: float = 0.08   # remainder is update traffic
    seed: int = 20260808
    slo_ms: float = 50.0
    parity_every: int = 7      # record every Nth query's full answer

    def as_dict(self) -> Dict:
        return asdict(self)


# -- request stream ---------------------------------------------------------


def build_requests(
    facts: FactSet, spec: LoadSpec, tenant: Optional[str] = None
) -> List[Dict]:
    """The deterministic request stream for one run.

    ``tenant`` is attached when given (the ``repro-serve/1`` server
    ignores unknown fields, so one stream serves both protocols).
    """
    rng = random.Random(spec.seed)
    variables = sorted(variables_of(facts))
    sites = sorted(
        {row[0] for row in facts.virtual_invoke}
        | {row[0] for row in facts.static_invoke}
    )
    heaps = sorted({row[0] for row in facts.assign_new})
    total = max(1, int(spec.rate * spec.duration_s))
    requests: List[Dict] = []
    for index in range(total):
        draw = rng.random()
        if draw < spec.query_fraction:
            kind = rng.randrange(4)
            if kind == 0 or not sites or not heaps:
                request = {
                    "op": "points_to", "var": rng.choice(variables)
                }
            elif kind == 1:
                request = {
                    "op": "alias",
                    "a": rng.choice(variables),
                    "b": rng.choice(variables),
                }
            elif kind == 2:
                request = {"op": "callees", "site": rng.choice(sites)}
            else:
                request = {"op": "fields_of", "heap": rng.choice(heaps)}
        elif draw < spec.query_fraction + spec.check_fraction:
            request = {"op": "check", "checks": ["CK1"]}
        else:
            # Commutative, non-interfering: a fresh sink variable fed
            # from an existing one.  See the module docstring.
            request = {
                "op": "update",
                "delta": {
                    "added": {
                        "assign": [
                            [rng.choice(variables), f"lb_extra_{index}"]
                        ]
                    }
                },
            }
        request["id"] = index
        if tenant is not None:
            request["tenant"] = tenant
        requests.append(request)
    return requests


# -- the open-loop driver ---------------------------------------------------


@dataclass
class _Sample:
    scheduled: float   # offset from run start, seconds
    latency: float     # completion - scheduled arrival, seconds
    ok: bool
    code: Optional[str]


# Shared arithmetic from the perf subsystem (one implementation for
# every harness); the local names are kept for existing importers.
_percentile = percentile


async def _drive_connection(
    host: str,
    port: int,
    assigned: List[Tuple[float, Dict]],
    t0: float,
    samples: Dict[int, _Sample],
    answers: Dict[int, object],
    spec: LoadSpec,
    dropped: Dict[int, float],
) -> None:
    loop = asyncio.get_running_loop()
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError:
        # A server refusing connections under load is a result, not a
        # crash: every assigned request counts as dropped.
        for scheduled, request in assigned:
            dropped[request["id"]] = scheduled
        return
    pending: Dict[int, float] = {}
    done = asyncio.Event()

    async def _read() -> None:
        try:
            while len(samples_local) < len(assigned):
                raw = await reader.readline()
                if not raw:
                    break
                response = json.loads(raw)
                request_id = response.get("id")
                scheduled = pending.pop(request_id, None)
                if scheduled is None:
                    continue
                latency = loop.time() - (t0 + scheduled)
                sample = _Sample(
                    scheduled=scheduled,
                    latency=latency,
                    ok=bool(response.get("ok")),
                    code=response.get("code"),
                )
                samples[request_id] = sample
                samples_local.append(request_id)
                if request_id in answers:
                    answers[request_id] = response.get("result")
        except (ConnectionError, OSError):
            pass
        done.set()

    samples_local: List[int] = []
    reader_task = loop.create_task(_read())
    try:
        for scheduled, request in assigned:
            delay = (t0 + scheduled) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            pending[request["id"]] = scheduled
            try:
                writer.write(json.dumps(request).encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionError, OSError):
                # Connection reset mid-run (e.g. a thread-per-connection
                # server shedding load the hard way).  The remaining
                # schedule on this lane is dropped traffic.
                break
        try:
            await asyncio.wait_for(done.wait(), timeout=30.0)
        except asyncio.TimeoutError:
            pass
    finally:
        reader_task.cancel()
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass
        for scheduled, request in assigned:
            if request["id"] not in samples:
                dropped[request["id"]] = scheduled


async def _drive(
    host: str, port: int, requests: List[Dict], spec: LoadSpec
) -> Tuple[Dict[int, _Sample], Dict[int, object], Dict[int, float]]:
    loop = asyncio.get_running_loop()
    t0 = loop.time() + 0.1
    samples: Dict[int, _Sample] = {}
    dropped: Dict[int, float] = {}
    #: query ids whose full answers we keep for the parity check.
    answers: Dict[int, object] = {
        request["id"]: None
        for request in requests
        if request["op"] in
        ("points_to", "alias", "callees", "fields_of")
        and request["id"] % spec.parity_every == 0
    }
    lanes: List[List[Tuple[float, Dict]]] = [
        [] for _ in range(spec.connections)
    ]
    for index, request in enumerate(requests):
        scheduled = index / spec.rate
        lanes[index % spec.connections].append((scheduled, request))
    await asyncio.gather(*[
        _drive_connection(
            host, port, lane, t0, samples, answers, spec, dropped
        )
        for lane in lanes if lane
    ])
    return samples, answers, dropped


def run_open_loop(
    host: str, port: int, requests: List[Dict], spec: LoadSpec
) -> Tuple[Dict, Dict[int, object]]:
    """Replay ``requests`` open-loop; returns (result dict, answers).

    The result scores only steady-state samples (scheduled at or after
    ``warmup_s``); ``answers`` maps sampled query ids to the full
    served results for the parity check.  Requests the server never
    answered (refused or reset connections) are **dropped** traffic:
    they count against SLO attainment but contribute no latency sample.
    """
    samples, answers, dropped = asyncio.run(
        _drive(host, port, requests, spec)
    )
    steady = [
        sample for sample in samples.values()
        if sample.scheduled >= spec.warmup_s
    ]
    steady_dropped = sum(
        1 for scheduled in dropped.values()
        if scheduled >= spec.warmup_s
    )
    window = max(1e-9, spec.duration_s - spec.warmup_s)
    latencies = sorted(sample.latency for sample in steady)
    errors: Dict[str, int] = {}
    for sample in samples.values():
        if not sample.ok and sample.code:
            errors[sample.code] = errors.get(sample.code, 0) + 1
    if dropped:
        errors["connection-dropped"] = len(dropped)
    # Only *successful* answers can meet the SLO — a fast "overload"
    # rejection is good behaviour but not served traffic.
    within_slo = sum(
        1 for sample in steady
        if sample.ok and sample.latency * 1000 <= spec.slo_ms
    )
    steady_offered = len(steady) + steady_dropped
    attainment = (
        (within_slo / steady_offered) if steady_offered else None
    )
    throughput = len(steady) / window
    return {
        "offered": len(requests),
        "answered": len(samples),
        "dropped": len(dropped),
        "steady_answered": len(steady),
        "throughput_rps": throughput,
        "latency_ms": {
            "p50": _ms(_percentile(latencies, 0.50)),
            "p95": _ms(_percentile(latencies, 0.95)),
            "p99": _ms(_percentile(latencies, 0.99)),
            "max": _ms(latencies[-1]) if latencies else None,
        },
        "slo_ms": spec.slo_ms,
        "slo_attainment": attainment,
        "slo_goodput_rps": (
            throughput * attainment if attainment is not None else None
        ),
        "errors": dict(sorted(errors.items())),
    }, answers


_ms = to_ms


# -- serving targets --------------------------------------------------------


def _start_threaded(
    snapshot_path: str,
) -> Tuple[str, int, "AnalysisService", object]:
    from repro.service.server import ServiceTCPServer

    service = AnalysisService.from_snapshot(snapshot_path)
    server = ServiceTCPServer(("127.0.0.1", 0), service)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def stop() -> None:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    return host, port, service, stop


def _start_gateway(
    snapshot_path: str, gateway_config=None
):
    from repro.serve.gateway import GatewayConfig, run_gateway_in_thread
    from repro.serve.registry import SnapshotRegistry

    registry = SnapshotRegistry()
    digest = registry.register(snapshot_path)
    gateway, (host, port), _thread, stop = run_gateway_in_thread(
        registry, gateway_config or GatewayConfig()
    )
    return host, port, gateway, digest, stop


# -- probes -----------------------------------------------------------------


def _overload_probe(snapshot_path: str, burst: int = 200) -> Dict:
    """Blast a tiny-queue gateway; every request must get an answer,
    and backpressure must be explicit (``overload``), not a timeout."""
    import socket

    from repro.serve.gateway import GatewayConfig

    host, port, _gateway, _digest, stop = _start_gateway(
        snapshot_path,
        GatewayConfig(queue_limit=8, max_batch=4, max_delay_ms=1.0),
    )
    try:
        connection = socket.create_connection((host, port))
        stream = connection.makefile("rw")
        for index in range(burst):
            stream.write(json.dumps(
                {"id": index, "op": "points_to", "var": "nonexistent"}
            ) + "\n")
        stream.flush()
        codes: Dict[str, int] = {}
        answered = 0
        for _ in range(burst):
            response = json.loads(stream.readline())
            answered += 1
            if not response.get("ok"):
                code = response.get("code", "?")
                codes[code] = codes.get(code, 0) + 1
        connection.close()
    finally:
        stop()
    return {
        "burst": burst,
        "answered": answered,
        "overload": codes.get("overload", 0),
        "timeouts": codes.get("timeout", 0),
        "other_errors": {
            code: count for code, count in sorted(codes.items())
            if code not in ("overload", "timeout", "op-failed")
        },
        "explicit_backpressure": (
            answered == burst
            and codes.get("overload", 0) > 0
            and codes.get("timeout", 0) == 0
        ),
    }


def _parity_check(
    snapshot_path: str,
    requests: List[Dict],
    answers_by_target: Dict[str, Dict[int, object]],
) -> Dict:
    """Every sampled served answer must equal the direct service's."""
    from repro.service.server import handle_request

    direct = AnalysisService.from_snapshot(snapshot_path)
    by_id = {request["id"]: request for request in requests}
    checked = 0
    mismatches: List[Dict] = []
    for target, answers in sorted(answers_by_target.items()):
        for request_id, served in sorted(answers.items()):
            if served is None:  # never answered (e.g. load shed)
                continue
            request = {
                key: value for key, value in by_id[request_id].items()
                if key != "tenant"
            }
            expected = handle_request(direct, request).get("result")
            checked += 1
            if expected != served:
                mismatches.append({
                    "target": target,
                    "id": request_id,
                    "op": request["op"],
                })
    return {
        "queries_checked": checked,
        "mismatches": mismatches[:10],
        "ok": checked > 0 and not mismatches,
    }


# -- the figure6/9 block ----------------------------------------------------


def run_serving_block(
    scale: int = 1,
    benchmark: str = DEFAULT_BENCHMARK,
    configuration: str = DEFAULT_CONFIGURATION,
    spec: Optional[LoadSpec] = None,
    overload_burst: int = 200,
) -> Dict:
    """Threaded server vs async gateway under identical open-loop load.

    Returns the additive ``serving`` block of ``repro-figure6/9``.
    """
    import os
    import tempfile

    spec = spec or LoadSpec()
    config = config_by_name(configuration)
    facts = corpus_facts(benchmark, scale)

    start = time.perf_counter()
    service = AnalysisService.from_facts(facts, config, backend="kernel")
    solve_seconds = time.perf_counter() - start
    handle, snapshot_path = tempfile.mkstemp(
        prefix="repro-loadbench-", suffix=".json"
    )
    os.close(handle)
    try:
        service.save_snapshot(snapshot_path)
        start = time.perf_counter()
        AnalysisService.from_snapshot(snapshot_path)
        restore_seconds = time.perf_counter() - start

        requests = build_requests(facts, spec)
        targets: Dict[str, Dict] = {}
        answers_by_target: Dict[str, Dict[int, object]] = {}

        host, port, _service, stop = _start_threaded(snapshot_path)
        try:
            result, answers = run_open_loop(host, port, requests, spec)
        finally:
            stop()
        result["protocol"] = "repro-serve/1"
        targets["threaded"] = result
        answers_by_target["threaded"] = answers

        host, port, gateway, _digest, stop = _start_gateway(snapshot_path)
        try:
            result, answers = run_open_loop(host, port, requests, spec)
            gateway_stats = gateway.stats.as_dict(0, gateway.draining)
            gateway_stats["registry"] = gateway.registry.describe()
        finally:
            stop()
        result["protocol"] = "repro-serve/2"
        result["gateway"] = gateway_stats
        targets["gateway"] = result
        answers_by_target["gateway"] = answers

        overload = _overload_probe(snapshot_path, burst=overload_burst)
        parity = _parity_check(snapshot_path, requests, answers_by_target)
    finally:
        os.unlink(snapshot_path)

    threaded, gw = targets["threaded"], targets["gateway"]

    def _goodput(block: Dict) -> float:
        return block.get("slo_goodput_rps") or 0.0

    # Latency percentiles only cover *answered* requests, so a target
    # that dropped traffic cannot win on p99 — its tail is survivorship-
    # biased by exactly the requests that would have populated it.
    threaded_clean = threaded.get("dropped", 0) == 0
    gateway_wins = _goodput(gw) >= _goodput(threaded) and (
        not threaded_clean
        or (gw["latency_ms"]["p99"] or 0)
        <= (threaded["latency_ms"]["p99"] or 0)
    )
    return {
        "benchmark": benchmark,
        "configuration": configuration,
        "scale": scale,
        "spec": spec.as_dict(),
        "warm_start": {
            "solve_seconds": solve_seconds,
            "restore_seconds": restore_seconds,
            "speedup": (
                solve_seconds / restore_seconds
                if restore_seconds > 0 else None
            ),
        },
        "targets": targets,
        "overload": overload,
        "parity": parity,
        "gateway_wins": gateway_wins,
    }


def format_serving(block: Dict) -> str:
    """One-paragraph text rendering (used by the CLI)."""
    spec = block["spec"]
    lines = [
        f"serving ({block['benchmark']}/{block['configuration']},"
        f" scale={block['scale']}): {spec['rate']:.0f} req/s open-loop"
        f" x {spec['duration_s']:.0f}s, {spec['connections']} connections,"
        f" SLO {spec['slo_ms']:.0f}ms"
    ]
    for name in ("threaded", "gateway"):
        target = block["targets"][name]
        latency = target["latency_ms"]

        def fmt(value):
            return "n/a" if value is None else f"{value:.1f}"

        attainment = target["slo_attainment"]
        drops = (
            f", {target['dropped']} dropped"
            if target.get("dropped") else ""
        )
        lines.append(
            f"  {name} ({target['protocol']}):"
            f" {target['throughput_rps']:.0f} rps,"
            f" p50/p95/p99 {fmt(latency['p50'])}/{fmt(latency['p95'])}"
            f"/{fmt(latency['p99'])}ms,"
            f" SLO {attainment * 100:.1f}%{drops}"
            if attainment is not None else f"  {name}: no steady samples"
        )
    warm = block["warm_start"]
    if warm["speedup"] is not None:
        lines.append(
            f"  warm start: restore {warm['restore_seconds'] * 1000:.0f}ms"
            f" vs solve {warm['solve_seconds'] * 1000:.0f}ms"
            f" ({warm['speedup']:.1f}x)"
        )
    overload = block["overload"]
    lines.append(
        f"  overload: {overload['answered']}/{overload['burst']} answered,"
        f" {overload['overload']} explicit overload,"
        f" {overload['timeouts']} timeouts"
        f" ({'ok' if overload['explicit_backpressure'] else 'FAILED'})"
    )
    parity = block["parity"]
    lines.append(
        f"  parity: {parity['queries_checked']} served answers vs direct"
        f" service ({'ok' if parity['ok'] else 'MISMATCH'})"
    )
    lines.append(
        "  verdict: "
        + ("gateway sustains >= goodput at <= p99"
           if block["gateway_wins"] else "threaded server wins (!)")
    )
    return "\n".join(lines)
