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


def one_edit_match(tok: str, tag: str) -> bool:
    """The store's fuzzy rule by edit distance: the token is the tag, or it
    has at least four characters and one insertion, deletion or
    substitution turns it into the tag (a transposition is two)."""
    return tok == tag or (len(tok) >= 4 and levenshtein_recursive(tok, tag) <= 1)


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

    Returns ``(records, postings, next_id, kept)``: record id ->
    ``(class, tags, timestamp_ns, attributes, position, source)`` with the
    tags a sorted list, the position a tuple or None and the class and
    source their string values; tag -> the live ids carrying it, ascending
    by ``(timestamp_ns, -record_id)``; one past the highest id any line
    named; and the file's bytes up to the end of its last complete line.
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
    for rid in sorted(records, key=lambda rid: (records[rid][2], -rid)):
        for tag in records[rid][1]:
            postings.setdefault(tag, []).append(rid)
    return records, postings, highest + 1, kept


class InProcArenaModel:
    """Reference counts of the in-process plane's arena slots, from its
    documented contract alone.

    Each topic has one arena. A publish takes a free slot with one reference
    per holder known at that moment: every matched live subscriber (one
    delivery each) plus the publisher's ring on a transient-local topic. A
    publish with no holder still needs a free slot but leaves it free. A
    writer matches a reader on the same topic unless the reader asks for
    transient-local and the writer is volatile. A queue or a ring at its
    depth drops its oldest entry, spending that entry's reference. A new
    transient-local reader gets the ring of every matched transient-local
    writer, one more reference per entry. A taken delivery keeps its
    reference until its first release; a second release spends nothing. A
    closed participant's endpoints leave the plane at once and its queues and
    rings give their references back; deliveries already taken stay held.

    Items are the published payloads that hold a slot: item id ->
    ``[topic, slot, references]``. The slot is what the arena reports, set
    by the caller through ``place``; the model only counts.
    """

    def __init__(self, slot_count):
        self.slot_count = slot_count
        self.alive = []  # participant index -> alive
        self.pubs = []  # [participant, topic, transient_local, depth, next_seq, ring]
        self.subs = []  # [participant, topic, transient_local, depth, queue]
        self.items = {}
        self.next_item = 0
        self.released = set()  # delivery ids released at least once
        self.next_delivery = 0

    # -- helpers ---------------------------------------------------------------

    def _matches(self, pub, sub):
        return (pub[1] == sub[1] and self.alive[pub[0]] and self.alive[sub[0]]
                and (pub[2] or not sub[2]))

    def _spend(self, item):
        entry = self.items[item]
        entry[2] -= 1
        if entry[2] == 0:
            del self.items[item]

    def _deliver(self, sub, pub_index, seq, item):
        """Queue one delivery on ``sub``; a full queue spends its oldest."""
        if sub[3] is not None and len(sub[4]) == sub[3]:
            self._spend(sub[4].pop(0)[3])
        sub[4].append((self.next_delivery, pub_index, seq, item))
        self.next_delivery += 1

    def held(self, topic):
        """Slot -> references, for every slot the topic's arena should hold."""
        return {slot: refs for t, slot, refs in self.items.values() if t == topic}

    def place(self, item, slot):
        self.items[item][1] = slot

    # -- the operations ----------------------------------------------------------

    def add_participant(self):
        self.alive.append(True)
        return len(self.alive) - 1

    def add_publisher(self, part, topic, transient_local, depth):
        self.pubs.append([part, topic, transient_local, depth, 0, []])
        return len(self.pubs) - 1

    def add_subscriber(self, part, topic, transient_local, depth):
        sub = [part, topic, transient_local, depth, []]
        self.subs.append(sub)
        if transient_local:
            for index, pub in enumerate(self.pubs):
                if self._matches(pub, sub):
                    for seq, item in pub[5]:
                        self.items[item][2] += 1
                        self._deliver(sub, index, seq, item)
        return len(self.subs) - 1

    def publish(self, pub_index):
        """``"closed"``, ``"exhausted"``, or ``(seq, item)`` with ``item``
        None when nothing holds the payload."""
        pub = self.pubs[pub_index]
        if not self.alive[pub[0]]:
            return "closed"
        if len(self.held(pub[1])) == self.slot_count:
            return "exhausted"
        seq = pub[4]
        pub[4] += 1
        readers = [sub for sub in self.subs if self._matches(pub, sub)]
        holders = len(readers) + (1 if pub[2] else 0)
        if not holders:
            return seq, None
        item = self.next_item
        self.next_item += 1
        self.items[item] = [pub[1], None, holders]
        if pub[2]:
            pub[5].append((seq, item))
            if pub[3] is not None and len(pub[5]) > pub[3]:
                self._spend(pub[5].pop(0)[1])
        for sub in readers:
            self._deliver(sub, pub_index, seq, item)
        return seq, item

    def take(self, sub_index):
        """Every queued delivery, oldest first: ``(delivery, pub, seq, item)``."""
        queue = self.subs[sub_index][4]
        taken, queue[:] = list(queue), []
        return taken

    def release(self, delivery):
        delivery_id, _, _, item = delivery
        if delivery_id not in self.released:
            self.released.add(delivery_id)
            self._spend(item)

    def close(self, part):
        if not self.alive[part]:
            return
        self.alive[part] = False
        for index, sub in enumerate(self.subs):
            if sub[0] == part:
                for delivery in self.take(index):
                    self.release(delivery)
        for pub in self.pubs:
            if pub[0] == part:
                for _, item in pub[5]:
                    self._spend(item)
                pub[5] = []
