"""Independent reference implementations used as test oracles.

Each oracle is deliberately written with a different algorithm or style
than the code under test, so shared bugs are unlikely.
"""

import json
from functools import lru_cache


def toposort_bruteforce(node_ids, edges):
    """Repeatedly pick the lexicographically smallest ready node (O(n^2))."""
    remaining = set(node_ids)
    order = []
    while remaining:
        ready = sorted(
            n for n in remaining
            if not any(dst == n and src in remaining for src, dst in edges)
        )
        if not ready:
            raise AssertionError("cycle in oracle input")
        pick = ready[0]
        order.append(pick)
        remaining.remove(pick)
    return order


def firing_round_oracle(nodes, edges, running, fresh_ports, external):
    """Predict which nodes fire and in what order for one round.

    nodes: {node_id: (inputs tuple, outputs tuple)}
    edges: set of (src, dst)
    running: set of node ids in RUNNING state
    fresh_ports: {(node_id, topic): bool} pre-round freshness
    external: {topic: value} inputs deposited this round
    Returns (fired order, post-round freshness).
    """
    fresh = dict(fresh_ports)
    for topic in external:
        for nid, (ins, _) in nodes.items():
            if topic in ins:
                fresh[(nid, topic)] = True
    order = toposort_bruteforce(list(nodes), edges)
    fired = []
    for nid in order:
        ins, outs = nodes[nid]
        if nid not in running:
            continue
        if not all(fresh.get((nid, t), False) for t in ins):
            continue
        for t in ins:
            fresh[(nid, t)] = False
        fired.append(nid)
        for t in outs:
            for other, (oins, _) in nodes.items():
                if t in oins:
                    fresh[(other, t)] = True
    return fired, fresh


def levenshtein_recursive(a: str, b: str) -> int:
    """Memoized recursive edit distance (the engine uses iterative DP)."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


class FsmReference:
    """Plain-dict reference interpreter for coordinated state machines.

    definitions: {fsm_id: {"initial": s, "transitions": [
        {"from": s, "event": e, "guard": [(fsm_id, state), ...] or None,
         "to": s, "actions": [("start_group"|"stop_group", gid) |
                              ("emit", fsm_id, event)]}]}}
    """

    def __init__(self, definitions, depth_limit=1000):
        self.defs = definitions
        self.depth_limit = depth_limit
        self.state = {fid: d["initial"] for fid, d in definitions.items()}

    def dispatch(self, fsm_id, event):
        queue = [(fsm_id, event)]
        actions = []
        steps = 0
        while queue:
            steps += 1
            if steps > self.depth_limit:
                return actions, "overflow"
            fid, ev = queue.pop(0)
            fired = None
            for t in self.defs[fid]["transitions"]:
                if t["from"] != self.state[fid] or t["event"] != ev:
                    continue
                guard = t.get("guard")
                if guard and not all(self.state[g_f] == g_s for g_f, g_s in guard):
                    continue
                fired = t
                break
            if fired is None:
                continue
            self.state[fid] = fired["to"]
            for action in fired.get("actions", ()):
                actions.append(action)
                if action[0] == "emit":
                    queue.append((action[1], action[2]))
        return actions, "ok"


_TAG_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")
_RECORD_CLASSES = ("object", "lane", "road_feature", "weather", "localization", "v2x_event")
_SOURCES = ("perception", "localization", "fusion", "v2x", "cloud")


def replay_reference(path):
    """Replay an environment-store log line by line, with explicit checks.

    Every complete line is parsed with ``json.loads`` on its own. A
    tombstone drops its record; any other line must be a valid record
    object and replaces the record with its id. Types are exact: a bool is
    not an int, and nothing is converted. A last line with no newline
    counts as cut short and is ignored. The file is not touched.

    Returns ``(records, postings, order, next_id, kept)``: record id ->
    ``(class, tags, timestamp_ns, attributes, position, source)`` with the
    tags a sorted list, the position a tuple or None and the class and
    source their string values; tag -> set of live ids; every live
    ``(timestamp_ns, -record_id)`` ascending; one past the highest id any
    line named; and the file's bytes up to the end of its last complete line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    kept = data[:data.rfind(b"\n") + 1]
    records, highest = {}, -1
    for number, line in enumerate(kept.decode("utf-8").split("\n")[:-1], 1):
        if not line.strip():
            continue
        obj = json.loads(line)
        rid = obj["record_id"]
        if type(rid) is not int or not 0 <= rid < 2**64:
            raise ValueError(f"line {number}: bad record_id {rid!r}")
        highest = max(highest, rid)
        if obj.get("deleted"):
            records.pop(rid, None)
            continue
        tags = obj["tags"]
        if type(tags) is not list or not tags:
            raise ValueError(f"line {number}: tags must be a non-empty list")
        for tag in tags:
            if type(tag) is not str or not tag or any(c not in _TAG_CHARS for c in tag):
                raise ValueError(f"line {number}: bad tag {tag!r}")
        if obj["class"] not in _RECORD_CLASSES:
            raise ValueError(f"line {number}: unknown class {obj['class']!r}")
        source = obj.get("source", "perception")
        if source not in _SOURCES:
            raise ValueError(f"line {number}: unknown source {source!r}")
        timestamp = obj["timestamp_ns"]
        if type(timestamp) is not int:
            raise ValueError(f"line {number}: bad timestamp_ns {timestamp!r}")
        position = obj.get("position")
        if position is not None:
            if (type(position) is not list or len(position) != 2
                    or not all(type(v) in (int, float) for v in position)):
                raise ValueError(f"line {number}: bad position {position!r}")
            position = tuple(position)
        records[rid] = (obj["class"], sorted(set(tags)), timestamp,
                        obj.get("attributes", {}), position, source)
    postings = {}
    for rid, fields in records.items():
        for tag in fields[1]:
            postings.setdefault(tag, set()).add(rid)
    order = sorted((fields[2], -rid) for rid, fields in records.items())
    return records, postings, order, highest + 1, kept
