"""Transport latency harness: zero-copy path vs a copying baseline.

Per payload size, one writer publishes ``samples`` payloads to one matched
subscriber and the publish-to-take wall time is recorded per sample. The
baseline laps do what a serializing transport does on top of the same
in-process path: one full copy of the payload before ``publish`` and one
full copy of the received data after ``take``, both inside the timed lap.
The zero-copy path moves only a buffer reference, so its latency must not
scale with the payload size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from dfp.middleware import (
    Domain,
    History,
    QoSProfile,
    Reliability,
    TopicDescriptor,
    type_hash_of,
)

DEFAULT_SIZES = (1024, 64 * 1024, 1024 * 1024, 4 * 1024 * 1024)
WARMUP = 200


@dataclass(frozen=True)
class BenchRow:
    path: str  # "zero_copy" | "copying"
    size: int
    median_us: float
    p99_us: float
    samples: int


def _copy(data: bytes) -> bytes:
    return memoryview(data).tobytes()


def _measure(domain: Domain, size: int, samples: int,
             copying: bool) -> tuple[float, float]:
    writer = domain.create_participant(f"bench_writer_{size}")
    reader = domain.create_participant(f"bench_reader_{size}")
    topic = TopicDescriptor(f"bench/s{size}", type_hash_of("bench_blob"),
                            QoSProfile(Reliability.RELIABLE, History.keep_last(8)))
    pub = writer.create_publisher(topic)
    sub = reader.create_subscriber(topic)
    payload = b"\xa5" * size
    perf = time.perf_counter
    laps = []
    for k in range(WARMUP + samples):
        t0 = perf()
        if copying:
            pub.publish(_copy(payload))
            got = sub.take(1)
            _copy(got[0].data)
        else:
            pub.publish(payload)
            got = sub.take(1)
        t1 = perf()
        got[0].release()
        if k >= WARMUP:
            laps.append(t1 - t0)
    writer.close()
    reader.close()
    laps.sort()
    median = laps[len(laps) // 2] * 1e6
    p99 = laps[min(len(laps) - 1, (len(laps) * 99) // 100)] * 1e6
    return median, p99


def run_bench(sizes=DEFAULT_SIZES, samples: int = 10_000) -> list[BenchRow]:
    """Measure both paths for every size; raises PayloadTooLarge for sizes
    beyond the arena slot."""
    rows = []
    for copying in (False, True):
        domain = Domain()
        for size in sizes:
            median, p99 = _measure(domain, size, samples, copying)
            rows.append(BenchRow("copying" if copying else "zero_copy",
                                 size, round(median, 3), round(p99, 3), samples))
    return rows


def latency_ratios(rows) -> dict:
    """Largest-to-smallest median latency ratio per path."""
    out = {}
    for path in ("zero_copy", "copying"):
        sized = {r.size: r.median_us for r in rows if r.path == path}
        if sized:
            out[path] = sized[max(sized)] / sized[min(sized)]
    return out


def format_table(rows) -> str:
    lines = [f"{'path':<10} {'size_bytes':>10} {'median_us':>11} {'p99_us':>11}"]
    for r in rows:
        lines.append(f"{r.path:<10} {r.size:>10} {r.median_us:>11.3f} {r.p99_us:>11.3f}")
    ratios = latency_ratios(rows)
    for path, ratio in ratios.items():
        lines.append(f"{path}: largest/smallest median ratio = {ratio:.2f}")
    return "\n".join(lines)
