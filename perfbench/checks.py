"""Independent checks of the program's outputs.

Nothing here imports ``dfp``: each check recomputes what the program
should have produced from the workload's own inputs, with its own
algorithm, and returns a list of problems (empty when the output holds).
"""

from __future__ import annotations

# -- acc_drive ----------------------------------------------------------------------

TRAJECTORY_TOL = 1e-6  # m, m/s and m/s^2; the stack's radar path rounds through km


def _profile_speed(profile, t: float) -> float:
    speed = profile[0][1]
    for start, value in profile:
        if start <= t + 1e-12:
            speed = value
    return speed


def _held_accel_step(x: float, v: float, a: float, dt: float):
    """One step under a held acceleration; a braking vehicle stops inside it."""
    v_next = v + a * dt
    if v_next >= 0.0:
        return x + (v + v_next) * dt / 2.0, v_next  # mean speed over the step
    return x + v * v / (-2.0 * a), 0.0  # distance to rest


def reintegrate(acc_doc: dict) -> list:
    """Constant-time-headway law against the held-acceleration plant.

    Returns ``(t, ego_position, ego_speed, lead_position, gap, command)``
    per step, stopping at the first step with no gap left.
    """
    sc, cfg = acc_doc["scenario"], acc_doc["config"]
    dt = sc["dt"]
    steps = round(sc["duration"] / dt)
    profile = sc["lead_profile"]
    x_ego, v_ego = sc["ego"]["position"], sc["ego"]["speed"]
    x_lead = sc["lead"]["position"]
    out = []
    for k in range(steps + 1):
        t = k * dt
        v_lead = _profile_speed(profile, t)
        gap = x_lead - x_ego
        want = cfg["standstill_gap"] + cfg["time_headway"] * v_ego
        raw = cfg["kp"] * (gap - want) + cfg["kv"] * (v_lead - v_ego)
        cmd = min(cfg["accel_max"], max(cfg["accel_min"], raw))
        out.append((t, x_ego, v_ego, x_lead, gap, cmd))
        if gap <= 0.0:
            break
        x_ego, v_ego = _held_accel_step(x_ego, v_ego, cmd, dt)
        x_lead += v_lead * dt
    return out


def check_drive(trajectory: list, report: dict, reference: list, node_ids) -> list:
    """Problems with one drive's trajectory and metrics report."""
    problems = []
    steps = len(reference)
    if report.get("fault") is not None:
        problems.append(f"fault {report['fault']}")
    if len(trajectory) != steps:
        problems.append(f"{len(trajectory)} steps, re-integration has {steps}")
    for point, ref in zip(trajectory, reference):
        got = (point["t"], point["ego_position"], point["ego_speed"],
               point["lead_position"], point["gap"], point["command"])
        if any(abs(a - b) > TRAJECTORY_TOL for a, b in zip(got, ref)):
            problems.append(f"trajectory off the re-integration at t={ref[0]:.2f}: {got} vs {ref}")
            break
    if any(p["gap"] <= 0.0 for p in trajectory):
        problems.append("gap reached 0")
    fired = {nid: report["nodes"].get(nid, {}).get("fired") for nid in node_ids}
    if any(n != steps for n in fired.values()):
        problems.append(f"nodes fired {fired}, want {steps} each")
    cmd = report["topics"].get("control/acc_cmd", {})
    if not cmd.get("published") == cmd.get("delivered") == steps:
        problems.append(f"control/acc_cmd {cmd}, want {steps} published and delivered")
    odds = report.get("odds", {})
    if odds.get("lead_vehicle") != steps or odds.get("tunnel_rain") != 0:
        problems.append(f"odds {odds}, want lead_vehicle={steps} tunnel_rain=0")
    return problems


# -- odd_catalog ---------------------------------------------------------------------

STOPWORDS = frozenset({"on", "in", "at", "the", "a", "an", "of", "and", "with"})
FUZZY_MIN_LEN = 4


def within_one_edit(a: str, b: str) -> bool:
    """True when one substitution, insertion or deletion turns a into b.

    A linear scan from the first mismatch, not a distance table; a swap of
    two neighbours takes two edits and is rejected.
    """
    if a == b:
        return True
    if len(a) > len(b):
        a, b = b, a
    if len(b) - len(a) > 1:
        return False
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    if len(a) == len(b):
        return a[i + 1:] == b[i + 1:]
    return a[i:] == b[i + 1:]


def token_matches(token: str, tag: str) -> bool:
    if token == tag:
        return True
    return len(token) >= FUZZY_MIN_LEN and within_one_edit(token, tag)


def shadow_query(shadow: dict, words, class_name=None, time_range=None) -> list:
    """Record ids a query must return, scanning ``shadow`` (id -> (class, tags, ts))."""
    tokens = [w.strip().lower() for w in words]
    tokens = [w for w in tokens if w and w not in STOPWORDS]
    vocabulary = set()
    for _, tags, _ in shadow.values():
        vocabulary |= tags
    wanted = [{tag for tag in vocabulary if token_matches(tok, tag)} for tok in tokens]
    hits = []
    for rid, (cls, tags, ts) in shadow.items():
        if class_name is not None and cls != class_name:
            continue
        if time_range is not None and not time_range[0] <= ts <= time_range[1]:
            continue
        if all(not want.isdisjoint(tags) for want in wanted):
            hits.append((-ts, rid))
    hits.sort()
    return [rid for _, rid in hits]


def check_records(records, shadow: dict, expected_ids: list) -> list:
    """Problems with a list of ``(id, class, tags, ts)`` against the shadow."""
    got_ids = [r[0] for r in records]
    if got_ids != expected_ids:
        missing = sorted(set(expected_ids) - set(got_ids))[:5]
        extra = sorted(set(got_ids) - set(expected_ids))[:5]
        return [f"{len(got_ids)} results, want {len(expected_ids)}; "
                f"missing {missing} extra {extra}"]
    for rid, cls, tags, ts in records:
        if shadow.get(rid) != (cls, tags, ts):
            return [f"record {rid} reads {(cls, sorted(tags), ts)}, shadow has {shadow.get(rid)}"]
    return []


# -- lossy_link and inproc_bus ---------------------------------------------------------------


def check_reliable(taken: list, sent: list) -> list:
    """Every seq exactly once, in order, with the bytes sent."""
    seqs = [seq for seq, _ in taken]
    if seqs != list(range(len(sent))):
        lost = sorted(set(range(len(sent))) - set(seqs))[:5]
        return [f"reliable delivered {len(seqs)} of {len(sent)}; lost {lost}"]
    for seq, data in taken:
        if data != sent[seq]:
            return [f"reliable seq {seq} carries other bytes"]
    return []


def check_best_effort(taken: list, sent: list) -> list:
    """A strictly increasing subsequence with the bytes sent."""
    seqs = [seq for seq, _ in taken]
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        return ["best-effort seqs not strictly increasing"]
    for seq, data in taken:
        if not 0 <= seq < len(sent) or data != sent[seq]:
            return [f"best-effort seq {seq} carries other bytes"]
    return []


def check_fanout(seq: int, sent: bytes, takes: list) -> list:
    """One sample per subscriber, the expected seq, one shared buffer object."""
    if any(len(t) != 1 for t in takes):
        return [f"seq {seq}: subscribers took {[len(t) for t in takes]} samples"]
    samples = [t[0] for t in takes]
    if any(s.seq != seq for s in samples):
        return [f"seq {seq}: subscribers took seqs {[s.seq for s in samples]}"]
    first = samples[0].data
    if any(s.data is not first for s in samples):
        return [f"seq {seq}: subscribers hold different buffer objects"]
    if first != sent:
        return [f"seq {seq}: buffer differs from the bytes sent"]
    return []
