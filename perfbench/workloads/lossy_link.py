"""lossy_link: a writer and a reader on one lossy ``Loopback`` port.

A round is one session on a fresh ``Domain`` whose port drops 10 % of
frames (``Domain.set_loss``, seeded): set-up creates both participants
and their endpoints and advances the simulated clock until discovery has
matched them. Then two phases, each a run of bursts with the clock
advanced 5 ms (in 1 ms spins) after every burst:

- reliable: every payload must arrive, so after the last burst the clock
  keeps advancing until NACK recovery has delivered every seq;
- best-effort: no recovery; whatever arrives must be an increasing
  subsequence.

Payloads run from 16 B to 4 KiB in a seeded order. Each round draws its
own loss pattern from the seed and the round number, so the latency tail
does not rest on one pattern; the frame counts are means per traced
round. A fresh domain per round keeps the bus's frame log from growing
with the run length.
"""

from __future__ import annotations

import gc
import os
import random
import time

import checks
import harness
from trace import Layers, Tracer, common_layer_metrics, overhead_pct

PORT = 9400
LOSS = 0.10
SAMPLES, BURST = 2048, 32
TINY_SAMPLES = 256
HISTORY = SAMPLES  # deep enough that every loss stays recoverable
BURST_GAP_NS, QUANTUM_NS = 5_000_000, 1_000_000
RECOVERY_LIMIT = 2_000  # advances allowed after the last burst
DATA, NACK = 0, 6  # DFP1 msg_type values


def make_payloads(seed: int, count: int) -> list:
    """Seeded sizes from 16 B to 4 KiB (log-uniform), seeded contents."""
    rng = random.Random(seed)
    blob = rng.randbytes(8192)
    out = []
    for _ in range(count):
        size = int(2 ** rng.uniform(4, 12))
        start = rng.randrange(len(blob) - size)
        out.append(blob[start:start + size])
    return out


class Session:
    def __init__(self, mw, loss_seed: int):
        self.domain = mw.Domain()
        self.domain.set_loss(PORT, LOSS, seed=loss_seed)
        writer = self.domain.create_participant("writer", mw.Loopback(PORT))
        reader = self.domain.create_participant("reader", mw.Loopback(PORT))
        reliable = mw.TopicDescriptor("bench/reliable", mw.type_hash_of("bench_blob"),
                                      mw.QoSProfile(mw.Reliability.RELIABLE,
                                                    mw.History.keep_last(HISTORY)))
        best = mw.TopicDescriptor("bench/best_effort", mw.type_hash_of("bench_blob"),
                                  mw.QoSProfile(mw.Reliability.BEST_EFFORT,
                                                mw.History.keep_last(1)))
        keep_all = mw.History.keep_all()
        self.subs = {
            "reliable": reader.create_subscriber(mw.TopicDescriptor(
                reliable.name, reliable.type_hash, mw.QoSProfile(mw.Reliability.RELIABLE, keep_all))),
            "best_effort": reader.create_subscriber(mw.TopicDescriptor(
                best.name, best.type_hash, mw.QoSProfile(mw.Reliability.BEST_EFFORT, keep_all))),
        }
        self.pubs = {"reliable": writer.create_publisher(reliable),
                     "best_effort": writer.create_publisher(best)}
        # the reader matches a publisher when it learns of it; the writer's
        # view of the subscribers is not needed for data to flow
        for _ in range(200):
            self.domain.advance(100_000_000, 100_000_000)
            seen = {r.descriptor.name for r in reader.discover("topics")
                    if r.entity == "publisher"}
            if seen >= {reliable.name, best.name}:
                return
        raise RuntimeError("discovery did not match writer and reader")

    def stream(self, kind: str, payloads: list):
        """Publish in bursts; returns (taken [(seq, bytes)], latencies_s, wall_s)."""
        pub, sub, domain = self.pubs[kind], self.subs[kind], self.domain
        now = time.perf_counter
        sent_at, taken, latencies = [], [], []
        start = now()

        def drain():
            for s in sub.take():
                taken.append((s.seq, s.data))
                latencies.append(now() - sent_at[s.seq])
                s.release()

        for i in range(0, len(payloads), BURST):
            for payload in payloads[i:i + BURST]:
                sent_at.append(now())
                pub.publish(payload)
            domain.advance(BURST_GAP_NS, QUANTUM_NS)
            drain()
        if kind == "reliable":
            for _ in range(RECOVERY_LIMIT):
                if len(taken) >= len(payloads):
                    break
                domain.advance(BURST_GAP_NS, QUANTUM_NS)
                drain()
        return taken, latencies, now() - start

    def frame_counts(self) -> dict:
        """Frames on the bus by kind, read from its frame log."""
        bus = self.domain.bus(PORT)
        data = sum(1 for _, raw in bus.frame_log if raw[5] == DATA)
        nacks = sum(1 for _, raw in bus.frame_log if raw[5] == NACK)
        return {"frames": len(bus.frame_log), "data": data, "nacks": nacks,
                "dropped": bus.dropped_frames}


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> harness.Outcome:
    out = harness.Outcome()
    count = TINY_SAMPLES if tiny else SAMPLES
    payloads = {"reliable": make_payloads(seed, count),
                "best_effort": make_payloads(seed + 1, count)}

    def loss_seed(round_no: int) -> int:
        return seed * 104_729 + round_no

    def build():
        (mw,) = harness.fresh_import("dfp.middleware")
        return mw, Session(mw, loss_seed(-1))

    pacer = harness.Pacer()

    figures = harness.Figures()
    mw, _ = harness.time_setups(pacer, figures, build)
    tracer, layers = Tracer(), Layers()
    # per untraced round: reliable samples/s, their latency p50 and p99 (us),
    # best-effort samples/s
    traced_s, plain_s = [], []
    counts: dict = {"frames": 0, "data": 0, "nacks": 0, "dropped": 0}
    delivered = traced_rounds = 0
    deadline = time.perf_counter() + seconds
    rounds = 0
    gc.disable()
    while rounds < 2 or time.perf_counter() < deadline:
        traced_round = trace and rounds % 2 == 1
        pacer.start()
        session = Session(mw, loss_seed(rounds))
        if traced_round:
            tracer.clear()
            tracer.install()
        streams = {kind: session.stream(kind, payloads[kind]) for kind in payloads}
        tracer.uninstall()
        slow = pacer.end()
        out.attempted += sum(len(p) for p in payloads.values())
        for kind, (taken, _, _) in streams.items():
            check = checks.check_reliable if kind == "reliable" else checks.check_best_effort
            problems = check(taken, payloads[kind])
            if problems:
                out.fail(f"{kind}: {problems[0]}")
        frames = session.frame_counts()
        if frames["dropped"] == 0:
            out.correct = False
            out.notes.append("the bus dropped no frame: the loss model is not in effect")
        wall = sum(w for _, _, w in streams.values())
        if traced_round:
            layers.add(tracer.summary())
            traced_s.append(wall)
            traced_rounds += 1
            delivered += sum(len(taken) for taken, _, _ in streams.values())
            for key in counts:
                counts[key] += frames[key]
        elif trace:
            plain_s.append(wall)
        else:
            taken, latencies, rel_wall = streams["reliable"]
            latencies.sort()
            figures.add("ops_per_s", len(taken) / rel_wall, slow)
            figures.add("op_p50_us", harness.percentile(latencies, 0.50) * 1e6, slow)
            figures.add("op_p99_us", harness.percentile(latencies, 0.99) * 1e6, slow)
            taken, _, best_wall = streams["best_effort"]
            figures.add("aux_ops_per_s", len(taken) / best_wall, slow)
        rounds += 1
    gc.enable()
    out.calibration_ms = pacer.finish()

    if trace:
        if tracer.spans:
            tracer.write_jsonl(os.path.join(harness.RESULTS_DIR, f"trace-lossy_link-{seed}.jsonl"))
        per_round = {key: n / traced_rounds if traced_rounds else 0.0 for key, n in counts.items()}
        metrics = common_layer_metrics(layers)
        metrics.update({
            "wire.frames_encoded": layers.calls("wire.encode") / traced_rounds if traced_rounds else 0.0,
            "link.frames_per_sample": counts["frames"] / delivered if delivered else 0.0,
            "link.retransmits": per_round["data"] - sum(len(p) for p in payloads.values()),
            "link.nacks": per_round["nacks"],
            "link.dropped_frames": per_round["dropped"],
            "link.bus_log_frames": per_round["frames"],
            "trace.overhead_pct": overhead_pct(traced_s, plain_s),
        })
        out.per_layer = metrics
        return out
    out.end_to_end = harness.end_to_end(figures)
    out.raw = {"chunks": rounds, "unnormalized": figures.unnormalized()}
    return out
