"""Each independent check accepts the right output and rejects a corrupted one.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import unittest
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import harness  # noqa: E402
from workloads import acc_drive, inproc_bus  # noqa: E402


class FakeSample:
    def __init__(self, seq, data):
        self.seq = seq
        self.data = data


def drive_fixture():
    """A report and trajectory built from the re-integration itself."""
    _, doc = acc_drive.make_scenarios(1, tiny=True)[0]
    reference = checks.reintegrate(doc["acc"])
    keys = ("t", "ego_position", "ego_speed", "lead_position", "gap", "command")
    trajectory = [dict(zip(keys, point)) for point in reference]
    steps = len(reference)
    nodes = [n["node_id"] for n in doc["pipeline"]["nodes"]]
    report = {
        "fault": None,
        "nodes": {nid: {"fired": steps} for nid in nodes},
        "topics": {"control/acc_cmd": {"published": steps, "delivered": steps}},
        "odds": {"lead_vehicle": steps, "tunnel_rain": 0},
    }
    return trajectory, report, reference, nodes


class AccDriveChecks(unittest.TestCase):
    def test_accepts_the_reference_drive(self):
        self.assertEqual(checks.check_drive(*drive_fixture()), [])

    def test_rejects_a_trajectory_off_the_reintegration(self):
        trajectory, report, reference, nodes = drive_fixture()
        trajectory[40]["ego_position"] += 1e-3
        self.assertTrue(checks.check_drive(trajectory, report, reference, nodes))

    def test_rejects_a_gap_at_zero(self):
        trajectory, report, reference, nodes = drive_fixture()
        trajectory[-1]["gap"] = 0.0
        reference[-1] = reference[-1][:4] + (0.0,) + reference[-1][5:]
        self.assertTrue(checks.check_drive(trajectory, report, reference, nodes))

    def test_rejects_a_node_that_skipped_a_step(self):
        trajectory, report, reference, nodes = drive_fixture()
        report["nodes"][nodes[2]]["fired"] -= 1
        self.assertTrue(checks.check_drive(trajectory, report, reference, nodes))

    def test_rejects_a_lost_command(self):
        trajectory, report, reference, nodes = drive_fixture()
        report["topics"]["control/acc_cmd"]["delivered"] -= 1
        self.assertTrue(checks.check_drive(trajectory, report, reference, nodes))

    def test_rejects_wrong_odd_counts(self):
        trajectory, report, reference, nodes = drive_fixture()
        report["odds"]["tunnel_rain"] = 1
        self.assertTrue(checks.check_drive(trajectory, report, reference, nodes))

    def test_variants_stay_clear_of_the_lead(self):
        for _, doc in acc_drive.make_scenarios(7):
            gaps = [p[4] for p in checks.reintegrate(doc["acc"])]
            self.assertGreaterEqual(min(gaps), acc_drive.MIN_VARIANT_GAP_M)
            self.assertEqual(len(gaps), 2401)


class EditDistance(unittest.TestCase):
    def test_one_edit_matches(self):
        for a, b in [("tunnel", "tunnel"), ("tunnel", "tunnal"), ("tunnel", "tunel"),
                     ("tunnel", "tunnnel"), ("tunnel", "xtunnel"), ("tunnel", "tunnelx")]:
            self.assertTrue(checks.within_one_edit(a, b), (a, b))
            self.assertTrue(checks.within_one_edit(b, a), (b, a))

    def test_transposition_and_two_edits_do_not_match(self):
        for a, b in [("tunnel", "tunenl"), ("tunnel", "utnnel"), ("tunnel", "tunnelxy"),
                     ("tunnel", "tannal"), ("rain", "rian")]:
            self.assertFalse(checks.within_one_edit(a, b), (a, b))

    def test_short_tokens_match_exactly_only(self):
        self.assertTrue(checks.token_matches("fog", "fog"))
        self.assertFalse(checks.token_matches("fgo", "fog"))
        self.assertFalse(checks.token_matches("fo", "fog"))
        self.assertFalse(checks.token_matches("rian", "rain"))


class ShadowScan(unittest.TestCase):
    shadow = {
        1: ("road_feature", frozenset({"tunnel", "highway"}), 30),
        2: ("road_feature", frozenset({"tunnel"}), 10),
        3: ("weather", frozenset({"rain"}), 30),
        4: ("road_feature", frozenset({"tunnel", "rain"}), 20),
    }

    def records(self, ids):
        return [(rid, *self.shadow[rid]) for rid in ids]

    def test_orders_newest_first_then_by_id(self):
        want = checks.shadow_query(self.shadow, ["tunnal"])
        self.assertEqual(want, [1, 4, 2])
        self.assertEqual(checks.check_records(self.records(want), self.shadow, want), [])
        self.assertTrue(checks.check_records(self.records([4, 1, 2]), self.shadow, want))

    def test_stopwords_filters_and_conjunction(self):
        self.assertEqual(checks.shadow_query(self.shadow, ["tunnel", "in", "the", "rain"]), [4])
        self.assertEqual(checks.shadow_query(self.shadow, ["rain"], "weather"), [3])
        self.assertEqual(checks.shadow_query(self.shadow, ["tunnel"], None, (15, 25)), [4])

    def test_rejects_a_transposition_that_matched(self):
        want = checks.shadow_query(self.shadow, ["tunenl"])
        self.assertEqual(want, [])
        self.assertTrue(checks.check_records(self.records([1, 4, 2]), self.shadow, want))

    def test_rejects_a_record_that_disagrees_with_the_shadow(self):
        want = [3]
        stale = [(3, "weather", frozenset({"fog"}), 30)]
        self.assertTrue(checks.check_records(stale, self.shadow, want))


class Streams(unittest.TestCase):
    sent = [bytes([i]) * (i + 1) for i in range(6)]

    def test_reliable(self):
        good = list(enumerate(self.sent))
        self.assertEqual(checks.check_reliable(good, self.sent), [])
        self.assertTrue(checks.check_reliable(good[:3] + good[4:], self.sent))  # lost seq
        self.assertTrue(checks.check_reliable(good[:4] + good[3:], self.sent))  # duplicate
        self.assertTrue(checks.check_reliable(good[1:2] + good[:1] + good[2:], self.sent))
        bad = good[:2] + [(2, b"x")] + good[3:]
        self.assertTrue(checks.check_reliable(bad, self.sent))

    def test_best_effort(self):
        some = [(0, self.sent[0]), (2, self.sent[2]), (5, self.sent[5])]
        self.assertEqual(checks.check_best_effort(some, self.sent), [])
        self.assertTrue(checks.check_best_effort(some[:2] + [(2, self.sent[2])], self.sent))
        self.assertTrue(checks.check_best_effort([(0, b"?")], self.sent))

    def test_fanout(self):
        payload = b"p" * 64
        shared = [[FakeSample(7, payload)] for _ in range(4)]
        self.assertEqual(checks.check_fanout(7, payload, shared), [])
        copied = shared[:3] + [[FakeSample(7, bytes(bytearray(payload)))]]
        self.assertTrue(checks.check_fanout(7, payload, copied))
        self.assertTrue(checks.check_fanout(7, payload, shared[:3] + [[]]))
        self.assertTrue(checks.check_fanout(8, payload, shared))
        self.assertTrue(checks.check_fanout(7, b"q" * 64, shared))

    def test_crc_reply(self):
        for request in (b"", b"a", bytes(range(256)) * 3):
            want = zlib.crc32(request).to_bytes(4, "big")
            self.assertEqual(inproc_bus.crc_reply_independent(request), want)
        self.assertNotEqual(inproc_bus.crc_reply_independent(b"ab"),
                            inproc_bus.crc_reply_independent(b"ba"))


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
        self.assertEqual(e2e, harness.END_TO_END)
        layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        self.assertEqual(layers, harness.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(__import__("workloads").WORKLOADS))


class Normalisation(unittest.TestCase):
    def test_slow_chunks_count_at_reference_speed(self):
        figures = harness.Figures()
        for value, slow in ((2.0, 2.0), (1.0, 1.0), (3.0, 1.5)):
            figures.add("t", value, slow)  # the same work on a slower host
            figures.add("r", 1.0 / value, slow)
        figures.add("n", 4.0, 2.0)
        self.assertEqual(figures.typical("t", "s"), 1.0)
        self.assertEqual(figures.typical("r", "ops/s"), 1.0)
        self.assertEqual(figures.typical("n", "count"), 4.0)
        self.assertEqual(figures.typical("missing", "s"), 0.0)
        self.assertEqual(figures.unnormalized()["t"], 2.0)

    def test_slowdown_is_a_plausible_ratio(self):
        pacer = harness.Pacer()
        pacer.start()
        slow = pacer.end()
        pacer.finish()
        self.assertGreater(slow, 0.1)
        self.assertLess(slow, 10.0)


if __name__ == "__main__":
    unittest.main()
