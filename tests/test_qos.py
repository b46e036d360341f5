import itertools

import pytest

from dfp.middleware.qos import (
    Durability,
    History,
    QoSError,
    QoSProfile,
    Reliability,
    link,
    qos_compatible,
)


def profile(rel, dur):
    return QoSProfile(reliability=rel, durability=dur)


def test_stronger_offer_satisfies_weaker_request():
    offered = profile(Reliability.RELIABLE, Durability.TRANSIENT_LOCAL)
    requested = profile(Reliability.BEST_EFFORT, Durability.VOLATILE)
    assert qos_compatible(offered, requested)


def test_best_effort_offer_cannot_serve_reliable_request():
    assert not qos_compatible(
        profile(Reliability.BEST_EFFORT, Durability.VOLATILE),
        profile(Reliability.RELIABLE, Durability.VOLATILE),
    )


def test_lattice_has_exactly_nine_compatible_pairs():
    # brute-force over the full 4x4 offered/requested lattice
    axes = list(itertools.product(Reliability, Durability))
    compatible = 0
    for off_rel, off_dur in axes:
        for req_rel, req_dur in axes:
            expect = off_rel >= req_rel and off_dur >= req_dur
            got = qos_compatible(profile(off_rel, off_dur), profile(req_rel, req_dur))
            assert got == expect
            compatible += got
    assert compatible == 9


BE, REL = Reliability.BEST_EFFORT, Reliability.RELIABLE
VOL, TL = Durability.VOLATILE, Durability.TRANSIENT_LOCAL


@pytest.mark.parametrize("offered,requested,linked", [
    # (reliability, durability) offered, requested -> (reliable, replays), or None
    ((BE, VOL), (BE, VOL), (False, False)),
    ((BE, VOL), (BE, TL), None),
    ((BE, VOL), (REL, VOL), None),
    ((BE, VOL), (REL, TL), None),
    ((BE, TL), (BE, VOL), (False, False)),
    ((BE, TL), (BE, TL), (False, True)),
    ((BE, TL), (REL, VOL), None),
    ((BE, TL), (REL, TL), None),
    ((REL, VOL), (BE, VOL), (False, False)),
    ((REL, VOL), (BE, TL), None),
    ((REL, VOL), (REL, VOL), (True, False)),
    ((REL, VOL), (REL, TL), None),
    ((REL, TL), (BE, VOL), (False, False)),
    ((REL, TL), (BE, TL), (False, True)),
    ((REL, TL), (REL, VOL), (True, False)),
    ((REL, TL), (REL, TL), (True, True)),
], ids=lambda v: "-".join(getattr(x, "name", str(x)) for x in v) if v else str(v))
def test_link_truth_table(offered, requested, linked):
    assert link(profile(*offered), profile(*requested)) == linked
    assert qos_compatible(profile(*offered), profile(*requested)) == (linked is not None)


def test_history_and_deadline_never_block_matching():
    offered = QoSProfile(history=History.keep_last(1), deadline_ms=5)
    requested = QoSProfile(history=History.keep_all(), deadline_ms=1)
    assert qos_compatible(offered, requested)


def test_keep_last_depth_must_be_positive():
    with pytest.raises(QoSError):
        History.keep_last(0)


def test_deadline_must_be_positive():
    with pytest.raises(QoSError):
        QoSProfile(deadline_ms=0)


def test_json_round_trip():
    qos = QoSProfile(Reliability.RELIABLE, History.keep_last(8),
                     Durability.TRANSIENT_LOCAL, deadline_ms=250)
    assert QoSProfile.from_json(qos.to_json()) == qos
    keep_all = QoSProfile(history=History.keep_all())
    assert QoSProfile.from_json(keep_all.to_json()) == keep_all


def test_unknown_qos_keys_rejected():
    with pytest.raises(QoSError):
        QoSProfile.from_json({"reliability": "reliable", "latency_budget": 3})


@pytest.mark.parametrize("doc", [
    {"reliability": 5},
    {"reliability": "bogus"},
    {"durability": ["volatile"]},
    {"history": {"keep_last": "3"}},
    {"history": {"keep_last": 1.5}},
    {"history": {"keep_last": True}},
    {"history": {"keep_last": "x"}},
    {"deadline_ms": True},
    {"deadline_ms": "x"},
    {"deadline_ms": 1.5},
], ids=repr)
def test_from_json_refuses_what_it_used_to_coerce(doc):
    with pytest.raises(QoSError):
        QoSProfile.from_json(doc)
