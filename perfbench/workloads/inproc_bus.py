"""inproc_bus: one publisher and four subscribers on the in-process plane.

Set-up creates five in-process participants, a reliable topic with one
publisher and four subscribers, and a ``crc32`` service. A round
publishes ``SAMPLES`` payloads of 64 B, 1 KiB, 64 KiB and 1 MiB in a
seeded order; after each publish every subscriber takes its sample, and
then releases it. Latency is publish until the last subscriber has taken
the sample, all sizes pooled. The round ends with ``CALLS`` request/reply
round trips through ``Participant.call``.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
import zlib

import checks
import harness
from trace import Layers, Tracer, common_layer_metrics, overhead_pct

SIZES = (64, 1024, 64 * 1024, 1024 * 1024)
VARIANTS_PER_SIZE = 4
SUBSCRIBERS = 4
SAMPLES, CALLS = 1200, 200  # 1200 samples: 12 beyond the round's p99
TINY_SAMPLES, TINY_CALLS = 40, 10
SERVICE = "crc32"


def make_inputs(seed: int, samples: int, calls: int) -> tuple:
    """Seeded payload order (sizes equally often) and call requests."""
    rng = random.Random(seed)
    pool = {size: [rng.randbytes(size) for _ in range(VARIANTS_PER_SIZE)] for size in SIZES}
    order = [SIZES[i % len(SIZES)] for i in range(samples)]
    rng.shuffle(order)
    payloads = [rng.choice(pool[size]) for size in order]
    requests = [rng.randbytes(rng.choice((16, 64, 256, 1024))) for _ in range(calls)]
    return payloads, requests


def crc_reply(request: bytes) -> bytes:
    return zlib.crc32(request).to_bytes(4, "big")


def crc_reply_independent(request: bytes) -> bytes:
    """The reply the service must return, computed bit by bit (CRC-32, IEEE)."""
    crc = 0xFFFFFFFF
    for byte in request:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return (crc ^ 0xFFFFFFFF).to_bytes(4, "big")


class Bus:
    def __init__(self, mw):
        self.domain = mw.Domain()
        server = self.domain.create_participant("publisher")
        readers = [self.domain.create_participant(f"reader{i}") for i in range(SUBSCRIBERS)]
        topic = mw.TopicDescriptor("bench/blob", mw.type_hash_of("bench_blob"),
                                   mw.QoSProfile(mw.Reliability.RELIABLE, mw.History.keep_last(8)))
        self.pub = server.create_publisher(topic)
        self.subs = [p.create_subscriber(topic) for p in readers]
        server.register_service(mw.ServiceDescriptor(SERVICE), crc_reply)
        self.caller = readers[0]
        if self.pub.matched_subscriptions() != SUBSCRIBERS:
            raise RuntimeError("in-process plane did not match every subscriber")
        if not any(r.descriptor.service_name == SERVICE
                   for r in self.caller.discover("services")):
            raise RuntimeError("the service is not discovered")


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> harness.Outcome:
    out = harness.Outcome()
    payloads, requests = make_inputs(seed, *((TINY_SAMPLES, TINY_CALLS) if tiny else (SAMPLES, CALLS)))
    expected_replies = [crc_reply_independent(r) for r in requests]

    def build():
        (mw,) = harness.fresh_import("dfp.middleware")
        return mw, Bus(mw)

    pacer = harness.Pacer()

    figures = harness.Figures()
    mw, bus = harness.time_setups(pacer, figures, build)
    pub, subs, caller = bus.pub, bus.subs, bus.caller
    now = time.perf_counter
    tracer, layers = Tracer(), Layers()
    # per untraced round: deliveries/s, latency p50 and p99 (us), calls/s
    by_size: dict = {size: [] for size in SIZES}
    traced_s, plain_s = [], []
    next_seq = 0
    deadline = now() + seconds
    rounds = 0
    gc.disable()
    while rounds < 2 or now() < deadline:
        traced_round = trace and rounds % 2 == 1
        pacer.start()
        if traced_round:
            tracer.clear()
            tracer.install()
        latencies, spent, problems = [], 0.0, []
        for payload in payloads:
            t0 = now()
            pub.publish(payload)
            takes = [sub.take() for sub in subs]
            t1 = now()
            for taken in takes:
                for sample in taken:
                    sample.release()
            t2 = now()
            latencies.append(t1 - t0)
            spent += t2 - t0
            problems.extend(checks.check_fanout(next_seq, payload, takes))
            next_seq += 1
        replies = []
        t0 = now()
        for request in requests:
            replies.append(caller.call(SERVICE, request))
        call_s = now() - t0
        tracer.uninstall()
        slow = pacer.end()
        out.attempted += len(payloads) + len(requests)
        for problem in problems:
            out.fail(problem)
        for reply, expected in zip(replies, expected_replies):
            if reply != expected:
                out.fail(f"call reply {reply!r} is not the CRC32 of the request")
        if traced_round:
            layers.add(tracer.summary())
            traced_s.append(spent + call_s)
            for payload, latency in zip(payloads, latencies):
                by_size[len(payload)].append(latency)
        elif trace:
            plain_s.append(spent + call_s)
        else:
            figures.add("ops_per_s", len(payloads) * SUBSCRIBERS / spent, slow)
            latencies.sort()
            figures.add("op_p50_us", harness.percentile(latencies, 0.50) * 1e6, slow)
            figures.add("op_p99_us", harness.percentile(latencies, 0.99) * 1e6, slow)
            figures.add("aux_ops_per_s", len(requests) / call_s, slow)
        rounds += 1
    gc.enable()
    out.calibration_ms = pacer.finish()
    overflow = sum(sub.drops_overflow for sub in subs)
    if overflow:
        out.correct = False
        out.notes.append(f"subscribers dropped {overflow} samples on overflow")

    if trace:
        if tracer.spans:
            tracer.write_jsonl(os.path.join(harness.RESULTS_DIR, f"trace-inproc_bus-{seed}.jsonl"))
        small, large = by_size[SIZES[0]], by_size[SIZES[-1]]
        metrics = common_layer_metrics(layers)
        metrics.update({
            "middleware.size_ratio": (statistics.median(large) / statistics.median(small)
                                      if small and large else 0.0),
            "trace.overhead_pct": overhead_pct(traced_s, plain_s),
        })
        out.per_layer = metrics
        return out
    out.end_to_end = harness.end_to_end(figures)
    out.raw = {"chunks": rounds, "unnormalized": figures.unnormalized()}
    return out
