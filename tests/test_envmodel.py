"""CRUD semantics, fuzzy queries, saved ODDs, ingestion, persistence."""

import json
import os
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dfp.envmodel
from dfp.envmodel import (
    STOPWORDS,
    _RADAR_RECORD,
    _TAG_RE,
    DuplicateId,
    DuplicateOddName,
    EmptyQuery,
    EnvRecord,
    EnvStore,
    InvalidQuery,
    InvalidRecord,
    NotFound,
    OddNotFound,
    OddQuery,
    RecordClass,
    Source,
    levenshtein,
)
from dfp.hal import AbstractFrame, DeviceDescriptor, DeviceKind, DeviceRegistry, normalize

from oracles import levenshtein_recursive, one_edit_match, replay_reference


def rec(rid, tags, ts=0, cls=RecordClass.OBJECT, **kw):
    return EnvRecord(rid, cls, frozenset(tags), ts, **kw)


def seeded_store():
    store = EnvStore()
    store.create(rec(1, {"tunnel", "highway", "rain", "night"}, ts=100))
    store.create(rec(2, {"tunnel", "highway", "rain"}, ts=200, cls=RecordClass.ROAD_FEATURE))
    store.create(rec(3, {"tunnel", "urban"}, ts=300))
    store.create(rec(4, {"highway", "rain"}, ts=400, cls=RecordClass.WEATHER))
    store.create(rec(5, {"bridge", "fog"}, ts=500))
    return store


# -- CRUD ----------------------------------------------------------------------

def test_create_then_read_roundtrip():
    store = EnvStore()
    r = rec(7, {"tunnel"}, ts=42, attributes={"speed_limit_mps": 22.2})
    store.create(r)
    assert store.read(7) == r


def test_duplicate_create_rejected():
    store = EnvStore()
    store.create(rec(1, {"x1"}))
    with pytest.raises(DuplicateId):
        store.create(rec(1, {"x2"}))


def test_delete_then_read_not_found():
    store = EnvStore()
    store.create(rec(1, {"x1"}))
    store.delete(1)
    with pytest.raises(NotFound):
        store.read(1)
    with pytest.raises(NotFound):
        store.delete(1)


def test_update_reflects_exactly_the_patch():
    store = EnvStore()
    store.create(rec(1, {"x1"}, ts=10))
    store.update(1, {"tags": {"x1", "x2"}, "attributes": {"k": 1}})
    after = store.read(1)
    assert after.tags == frozenset({"x1", "x2"})
    assert after.attributes == {"k": 1}
    assert after.timestamp_ns == 10  # untouched fields stay


def test_update_refuses_a_string_for_tags():
    store = EnvStore()
    store.create(rec(1, {"x1"}))
    with pytest.raises(InvalidRecord, match="'rain'"):
        store.update(1, {"tags": "rain"})
    assert store.read(1).tags == frozenset({"x1"})


def test_update_cannot_change_class():
    store = EnvStore()
    store.create(rec(1, {"rain"}, cls=RecordClass.WEATHER))
    with pytest.raises(InvalidRecord):
        store.update(1, {"class": "object"})
    store.update(1, {"class": "weather"})  # stating the same class is a no-op


def test_update_refuses_a_record_id_and_keys_a_log_line_does_not_have():
    store = EnvStore()
    store.create(rec(1, {"rain"}, cls=RecordClass.WEATHER))
    for patch, why in (({"record_id": 1}, "record_id cannot change"),
                       ({"record_class": "weather"}, "unknown record field 'record_class'"),
                       ({"tags": ["fog"], "colour": "red"}, "unknown record field 'colour'")):
        with pytest.raises(InvalidRecord, match=why):
            store.update(1, patch)
    assert store.read(1) == rec(1, {"rain"}, cls=RecordClass.WEATHER)


def test_create_reads_its_record_as_the_replay_does():
    store = EnvStore()
    store.save_odd("fog", OddQuery(("fog",)))
    with pytest.raises(InvalidRecord, match="'bogus' is not a valid RecordClass"):
        store.create(EnvRecord(1, "bogus", frozenset({"fog"}), 0))
    with pytest.raises(InvalidRecord, match="'radio' is not a valid Source"):
        store.create(EnvRecord(1, RecordClass.OBJECT, frozenset({"fog"}), 0, source="radio"))
    assert store.all_records() == [] and store.run_odd("fog") == []
    # a set of words is a tag collection; the store holds it as a frozenset
    store.create(EnvRecord(1, RecordClass.OBJECT, {"fog"}, 0, position=[1.0, 2.0]))
    got = store.read(1)
    assert type(got.tags) is frozenset and got.position == (1.0, 2.0)
    assert store.run_odd("fog") == [got]


def test_create_delete_leaves_record_set_unchanged():
    store = seeded_store()
    before = {r.record_id for r in store.all_records()}
    store.create(rec(99, {"temp"}))
    store.delete(99)
    assert {r.record_id for r in store.all_records()} == before


def test_invalid_tags_rejected():
    store = EnvStore()
    with pytest.raises(InvalidRecord):
        store.create(rec(1, set()))
    with pytest.raises(InvalidRecord):
        store.create(rec(2, {"Bad Tag"}))
    with pytest.raises(InvalidRecord):  # a tag is a whole word: no trailing newline
        store.create(rec(3, {"rain\n"}))
    assert store.all_records() == []


# -- fuzzy matching --------------------------------------------------------------

def test_levenshtein_against_recursive_oracle():
    rng = random.Random(5)
    alphabet = "abcdef"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert levenshtein(a, b) == levenshtein_recursive(a, b)


def fuzzy_tags_of_one(tok, tag):
    """The tags ``_fuzzy_tags`` finds for ``tok`` in a store that holds the
    one tag ``tag``."""
    store = EnvStore()
    store.create(rec(0, {tag}))
    return store._fuzzy_tags(tok)


def test_single_edit_matches_only_from_length_four():
    assert fuzzy_tags_of_one("tunel", "tunnel") == {"tunnel"}  # deletion, length 5
    assert fuzzy_tags_of_one("tunnvl", "tunnel") == {"tunnel"}  # substitution
    assert fuzzy_tags_of_one("tunnnel", "tunnel") == {"tunnel"}  # insertion
    assert fuzzy_tags_of_one("tnunel", "tunnel") == set()  # a transposition is two edits
    assert fuzzy_tags_of_one("cat", "cap") == set()  # distance 1 but too short
    assert fuzzy_tags_of_one("cat", "cat") == {"cat"}
    assert fuzzy_tags_of_one("tunnel", "bridge") == set()


# a shorter and a longer string from a three-letter alphabet, their lengths
# 0-3 apart; the flag says which of the two is the token
near_length_pairs = st.text(alphabet="abc", max_size=6).flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.integers(0, 3).flatmap(
            lambda d: st.text(alphabet="abc", min_size=len(a) + d, max_size=len(a) + d)),
        st.booleans()))


@settings(max_examples=400, deadline=None)
@given(near_length_pairs)
def test_fuzzy_match_length_bound_equals_one_edit_oracle(pair):
    short, long_, token_is_long = pair
    tok, tag = (long_, short) if token_is_long else (short, long_)
    assume(tag)  # a store holds no empty tag
    assert fuzzy_tags_of_one(tok, tag) == ({tag} if one_edit_match(tok, tag) else set())


WIDE = "abcdefgh"


@st.composite
def wide_pairs(draw):
    """A token over eight letters and a tag drawn on its own or made from
    the token by one or two edits, so that both pairs far apart and pairs
    one or two edits apart turn up."""
    tok = draw(st.text(alphabet=WIDE, max_size=8))
    if draw(st.booleans()):
        return tok, draw(st.text(alphabet=WIDE, max_size=8))
    tag = tok
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(tag)))
        c = draw(st.sampled_from(WIDE))
        kind = draw(st.sampled_from(("substitute", "insert", "delete")))
        if kind == "insert" or i == len(tag):
            tag = tag[:i] + c + tag[i:]
        elif kind == "substitute":
            tag = tag[:i] + c + tag[i + 1:]
        else:
            tag = tag[:i] + tag[i + 1:]
    return tok, tag


@settings(max_examples=600, deadline=None)
@given(wide_pairs())
@example(("abcd", "abce"))  # a substitution that drops a character and brings one in
@example(("abcd", "abcde"))
@example(("abcde", "abce"))
@example(("abcd", "abdc"))  # a transposition is two edits
def test_fuzzy_match_equals_one_edit_oracle_over_a_wide_alphabet(pair):
    tok, tag = pair
    assume(tag)  # a store holds no empty tag
    assert fuzzy_tags_of_one(tok, tag) == ({tag} if one_edit_match(tok, tag) else set())


def one_edit_variants(word, alphabet):
    """Every substitution, insertion, deletion and adjacent transposition of
    ``word`` over ``alphabet``."""
    out = set()
    for i in range(len(word) + 1):
        for c in alphabet:
            out.add(word[:i] + c + word[i:])
            if i < len(word):
                out.add(word[:i] + c + word[i + 1:])
        if i < len(word):
            out.add(word[:i] + word[i + 1:])
        if i + 1 < len(word):
            out.add(word[:i] + word[i + 1] + word[i] + word[i + 2:])
    return out


def test_no_store_path_runs_an_edit_distance(monkeypatch, tmp_path):
    """Saved ODDs and queries find a token's tags through ``_near`` alone:
    with ``levenshtein`` raising, every write, query and reopen still
    answers as a scan does, over a dense vocabulary too."""

    def raising(a, b):
        raise AssertionError(f"levenshtein({a!r}, {b!r}) ran")

    monkeypatch.setattr(dfp.envmodel, "levenshtein", raising)
    path = str(tmp_path / "env.jsonl")
    with EnvStore(log_path=path) as store:
        q = OddQuery(("tunel",))
        store.save_odd("tunnel", q)
        store.create(rec(1, {"tunnel", "rain"}, ts=10))
        rid = store.ingest({"class": "road_feature", "tags": ["tunnel"], "timestamp_ns": 20})
        store.update(1, {"tags": ["tunnel", "night"], "timestamp_ns": 30})
        store.create(rec(3, {"tunnels"}, ts=5))
        store.delete(3)
        records = store.all_records()
        want = brute_force_query(records, q.tokens)
        assert [r.record_id for r in want] == [1, rid]
        assert store.query(q) == store.run_odd("tunnel") == want
    reopened = EnvStore.open(path)
    assert reopened.all_records() == records
    reopened.save_odd("tunnel", q)
    assert reopened.run_odd("tunnel") == reopened.query(q) == want

    rng = random.Random(25)
    vocabulary = set()
    while len(vocabulary) < 1000:  # a dense vocabulary: many tags one edit apart
        vocabulary.add("".join(rng.choice("abcdef") for _ in range(rng.randint(3, 6))))
    vocabulary = sorted(vocabulary)
    store = EnvStore()
    for rid, tag in enumerate(vocabulary):
        store.create(rec(rid, {tag, rng.choice(vocabulary)}, ts=rng.randint(0, 99)))
    records = store.all_records()
    words = rng.sample(vocabulary, 8)
    words += rng.sample(sorted(one_edit_variants(words[0], "abcdefg")), 12)
    for word in words:
        assert store.query(OddQuery((word,))) == brute_force_query(records, [word]), word


def test_paper_style_query_with_connector_words():
    store = seeded_store()
    q = OddQuery(("tunnel", "on", "highway", "in", "rain"))
    got = [r.record_id for r in store.query(q)]
    assert got == [2, 1]  # newest first, id ascending on ties


def test_typo_token_still_selects():
    store = seeded_store()
    got = [r.record_id for r in store.query(OddQuery(("tunel", "highway")))]
    assert got == [2, 1]


def test_stopword_only_query_rejected():
    store = seeded_store()
    with pytest.raises(EmptyQuery):
        store.query(OddQuery(("on", "in")))


def test_class_and_time_filters_are_conjunctive():
    store = seeded_store()
    q = OddQuery(("rain",), class_filter=RecordClass.WEATHER)
    assert [r.record_id for r in store.query(q)] == [4]
    q = OddQuery(("rain",), time_range=(150, 250))
    assert [r.record_id for r in store.query(q)] == [2]


def test_result_ordering_is_timestamp_desc_then_id_asc():
    store = EnvStore()
    store.create(rec(2, {"fog1"}, ts=100))
    store.create(rec(1, {"fog1"}, ts=100))
    store.create(rec(3, {"fog1"}, ts=50))
    got = [r.record_id for r in store.query(OddQuery(("fog1",)))]
    assert got == [1, 2, 3]


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="abcdxyz_01", min_size=1, max_size=8))
def test_query_monotonicity_adding_records_never_removes_results(tag):
    store = seeded_store()
    before = [r.record_id for r in store.query(OddQuery(("tunnel",)))]
    try:
        store.create(rec(50, {tag}, ts=999))
    except InvalidRecord:
        return
    after = store.query(OddQuery(("tunnel",)))
    assert set(before) <= {r.record_id for r in after}


# -- brute-force oracle equivalence ------------------------------------------------

def brute_force_query(records, words, class_filter=None, time_range=None):
    tokens = [w.strip().lower() for w in words]
    tokens = [w for w in tokens if w and w not in STOPWORDS]
    assert tokens
    out = []
    for r in records:
        if class_filter is not None and r.record_class != class_filter:
            continue
        if time_range is not None and not (time_range[0] <= r.timestamp_ns <= time_range[1]):
            continue
        ok = True
        for tok in tokens:
            hits = [t for t in r.tags if one_edit_match(tok, t)]
            if not hits:
                ok = False
                break
        if ok:
            out.append(r)
    return sorted(out, key=lambda r: (-r.timestamp_ns, r.record_id))


def corpus_store(rng, size=50):
    vocabulary = ["tunnel", "highway", "rain", "night", "fog", "urban", "bridge",
                  "snow", "ramp", "merge", "toll", "gravel", "wind", "ice",
                  "roadwork", "detour"]
    store = EnvStore()
    for rid in range(size):
        tags = frozenset(rng.sample(vocabulary, rng.randint(1, 4)))
        store.create(EnvRecord(rid, rng.choice(list(RecordClass)), tags,
                               rng.randint(0, 10_000)))
    return store, vocabulary


def test_query_equals_brute_force_scan_on_random_corpus():
    rng = random.Random(77)
    store, vocabulary = corpus_store(rng)
    records = store.all_records()
    for trial in range(200):
        n = rng.randint(1, 3)
        words = [rng.choice(vocabulary) for _ in range(n)]
        if rng.random() < 0.4:  # perturb one word by an edit
            w = list(words[0])
            w[rng.randrange(len(w))] = rng.choice("abcdefghijklmnopqrstuvwxyz")
            words[0] = "".join(w)
        if rng.random() < 0.3:
            words.insert(rng.randint(0, len(words)), rng.choice(sorted(STOPWORDS)))
        class_filter = rng.choice(list(RecordClass)) if rng.random() < 0.25 else None
        time_range = (2000, 8000) if rng.random() < 0.25 else None
        got = store.query(OddQuery(tuple(words), class_filter, time_range))
        want = brute_force_query(records, words, class_filter, time_range)
        assert got == want, f"trial {trial}: {words}"


# A vocabulary with near neighbours ("rain"/"rail", "tunnel"/"tunnels"), so one
# token can match several tags and the index has to union their postings.
INDEX_TAGS = ["rain", "rail", "tunnel", "tunnels", "fog", "fig", "snow", "ice"]
QUERY_WORDS = INDEX_TAGS + ["rian", "tunel", "snwo", "rains", "fo", "ic", "the", "on"]

tag_sets = st.frozensets(st.sampled_from(INDEX_TAGS), min_size=1, max_size=3)
record_ids = st.integers(min_value=0, max_value=4)
timestamps = st.integers(min_value=0, max_value=3)  # few values, so ids tie often
classes = st.sampled_from([RecordClass.OBJECT, RecordClass.WEATHER])
# narrow windows favour the window walk, whole-store windows and no window
# the postings join (the walk still wins when a token is on every record)
windows = st.one_of(st.none(), st.tuples(timestamps, timestamps).map(sorted).map(tuple),
                    st.just((-1, 4)))
store_ops = st.one_of(
    st.tuples(st.just("create"), record_ids, tag_sets, timestamps, classes),
    st.tuples(st.just("ingest"), tag_sets, timestamps, classes),
    st.tuples(st.just("update"), record_ids, st.none() | tag_sets, st.none() | timestamps),
    st.tuples(st.just("delete"), record_ids),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("query"), st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=3),
              st.none() | classes, windows),
)


def check_query(store, shadow, words, class_filter=None, time_range=None):
    q = OddQuery(tuple(words), class_filter, time_range)
    if all(w in STOPWORDS for w in words):
        with pytest.raises(EmptyQuery):
            store.query(q)
        return
    want = brute_force_query(shadow.values(), words, class_filter, time_range)
    assert store.query(q) == want, f"{words} {class_filter} {time_range}"


@settings(max_examples=100, deadline=None)
@given(st.lists(store_ops, max_size=25))
def test_posting_index_queries_equal_scan_under_random_crud_and_reopen(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "env.jsonl")
        open(path, "w").close()  # reopening before the first write finds an empty log
        store = EnvStore(log_path=path)
        shadow, next_id = {}, 0
        for op in ops:
            kind = op[0]
            if kind == "create":
                _, rid, tags, ts, cls = op
                r = rec(rid, tags, ts=ts, cls=cls)
                if rid in shadow:
                    with pytest.raises(DuplicateId):
                        store.create(r)
                else:
                    store.create(r)
                    shadow[rid] = r
                    next_id = max(next_id, rid + 1)
            elif kind == "ingest":
                _, tags, ts, cls = op
                rid = store.ingest({"class": cls.value, "tags": sorted(tags),
                                    "timestamp_ns": ts})
                assert rid == next_id
                shadow[rid] = rec(rid, tags, ts=ts, cls=cls, source=Source.FUSION)
                next_id += 1
            elif kind == "update":
                _, rid, tags, ts = op
                patch = {}
                if tags is not None:
                    patch["tags"] = tags
                if ts is not None:
                    patch["timestamp_ns"] = ts
                if rid in shadow:
                    store.update(rid, patch)
                    shadow[rid] = shadow[rid]._replace(**patch)
                else:
                    with pytest.raises(NotFound):
                        store.update(rid, patch)
            elif kind == "delete":
                _, rid = op
                if rid in shadow:
                    store.delete(rid)
                    del shadow[rid]
                else:
                    with pytest.raises(NotFound):
                        store.delete(rid)
            elif kind == "reopen":
                store.close()
                store = EnvStore.open(path)
            else:
                check_query(store, shadow, *op[1:])
        store.close()  # what follows only reads
        assert store.all_records() == sorted(shadow.values(), key=lambda r: r.record_id)
        for word in QUERY_WORDS:
            for window in (None, (1, 2), (-1, 4)):
                check_query(store, shadow, [word], None, window)
        # no stale ids, no tags left unused, each list in result order read backwards
        assert posting_ids(store) == expected_postings(shadow.values())


def expected_postings(records):
    """Tag -> the ids of ``records`` that carry it, ascending by
    ``(timestamp_ns, -record_id)``, rebuilt from scratch."""
    postings = {}
    for r in sorted(records, key=lambda r: (r.timestamp_ns, -r.record_id)):
        for tag in r.tags:
            postings.setdefault(tag, []).append(r.record_id)
    return postings


def posting_ids(store):
    """Tag -> the ids its postings hold, in order; every posted record is
    the one the store holds under its id, not a stale copy."""
    out = {}
    for tag, run in store._postings.items():
        assert all(store._records[r.record_id] is r for r in run), tag
        out[tag] = [r.record_id for r in run]
    return out


def check_postings(store):
    """The postings equal a rebuild from ``all_records()``, and every list
    is strictly ascending by ``(timestamp_ns, -record_id)``."""
    assert posting_ids(store) == expected_postings(store.all_records())
    for tag, run in store._postings.items():
        keys = [(r.timestamp_ns, -r.record_id) for r in run]
        assert run and all(a < b for a, b in zip(keys, keys[1:])), tag


@settings(max_examples=100, deadline=None)
@given(st.lists(store_ops, max_size=25))
def test_postings_equal_a_rebuild_under_random_writes_and_reopen(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "env.jsonl")
        open(path, "w").close()
        store = EnvStore(log_path=path)
        for op in ops:
            kind, live = op[0], store._records
            if kind == "create" and op[1] not in live:
                store.create(rec(op[1], op[2], ts=op[3], cls=op[4]))
            elif kind == "ingest":
                store.ingest({"class": op[3].value, "tags": sorted(op[1]), "timestamp_ns": op[2]})
            elif kind == "update" and op[1] in live:
                patch = {"tags": op[2], "timestamp_ns": op[3]}
                store.update(op[1], {k: v for k, v in patch.items() if v is not None})
            elif kind == "delete" and op[1] in live:
                store.delete(op[1])
            elif kind == "reopen":
                store.close()
                store = EnvStore.open(path)
            check_postings(store)
        store.close()
        reopened = EnvStore.open(path)
        check_postings(reopened)
        assert posting_ids(reopened) == posting_ids(store)


def near_index(vocabulary):
    """The one-deletion index of ``vocabulary``, rebuilt from scratch."""
    near = {}
    for tag in vocabulary:
        for i in range(len(tag)):
            near.setdefault(tag[:i] + tag[i + 1:], set()).add(tag)
    return near


NEAR_ALPHABET = "abc"


@st.composite
def near_tokens(draw, pool):
    """A token for the index oracle: a tag of ``pool`` (live or dead), one
    edit or a transposition away from one, a free token of length 3 or 4,
    or a stopword."""
    kind = draw(st.sampled_from(("tag", "substitute", "insert", "delete", "transpose",
                                 "free", "stopword")))
    if kind == "stopword":
        return draw(st.sampled_from(sorted(STOPWORDS)))
    if kind == "free":
        return draw(st.text(alphabet=NEAR_ALPHABET + "d", min_size=3, max_size=4))
    tag = draw(st.sampled_from(pool))
    i = draw(st.integers(0, len(tag) - 1))
    c = draw(st.sampled_from(NEAR_ALPHABET + "d"))
    if kind == "substitute":
        return tag[:i] + c + tag[i + 1:]
    if kind == "insert":
        return tag[:i] + c + tag[i:]
    if kind == "delete":
        return tag[:i] + tag[i + 1:]
    if kind == "transpose" and i + 1 < len(tag):
        return tag[:i] + tag[i + 1] + tag[i] + tag[i + 2:]
    return tag


def check_near(store, tokens):
    """``_near`` is the index of the live vocabulary, no stale key and no
    empty set, and each token's tags are those the one-edit oracle picks."""
    assert store._near == near_index(store._postings)
    for tok in tokens:
        want = {tag for tag in store._postings if one_edit_match(tok, tag)}
        assert store._fuzzy_tags(tok) == want, tok


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_near_index_equals_the_fuzzy_scan_under_random_writes_and_reopen(data):
    # a few short tags over three letters, so that tags lie one edit apart,
    # lose their last posting and come back
    pool = data.draw(st.lists(st.text(alphabet=NEAR_ALPHABET, min_size=2, max_size=6),
                              min_size=1, max_size=8, unique=True))
    tag_set = st.frozensets(st.sampled_from(pool), min_size=1, max_size=3)
    rid = st.integers(min_value=0, max_value=5)
    write = st.one_of(st.tuples(st.just("create"), rid, tag_set),
                      st.tuples(st.just("ingest"), tag_set),
                      st.tuples(st.just("update"), rid, tag_set),
                      st.tuples(st.just("delete"), rid))
    tokens = st.lists(near_tokens(pool), min_size=1, max_size=6)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "env.jsonl")
        open(path, "w").close()  # the drawn writes may all be skipped
        with EnvStore(log_path=path) as store:
            for op in data.draw(st.lists(write, min_size=1, max_size=20)):
                kind = op[0]
                if kind == "create" and op[1] not in store._records:
                    store.create(rec(op[1], op[2]))
                elif kind == "ingest":
                    store.ingest({"class": "object", "tags": sorted(op[1])})
                elif kind == "update" and op[1] in store._records:
                    store.update(op[1], {"tags": op[2]})
                elif kind == "delete" and op[1] in store._records:
                    store.delete(op[1])
                check_near(store, data.draw(tokens))
        reopened = EnvStore.open(path)
        assert reopened._postings == store._postings
        check_near(reopened, data.draw(tokens))


# -- query plans ----------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_query_plans_follow_the_vocabulary_under_random_writes_and_reopen(data):
    # a few short tags that gain their first posting and lose their last; the
    # same queries are asked after every write, so a plan kept past a change
    # of the vocabulary answers for the old one
    pool = data.draw(st.lists(st.text(alphabet=NEAR_ALPHABET, min_size=2, max_size=5),
                              min_size=1, max_size=6, unique=True))
    tag_set = st.frozensets(st.sampled_from(pool), min_size=1, max_size=2)
    rid = st.integers(min_value=0, max_value=3)
    write = st.one_of(st.tuples(st.just("create"), rid, tag_set),
                      st.tuples(st.just("ingest"), tag_set),
                      st.tuples(st.just("update"), rid, tag_set),
                      st.tuples(st.just("delete"), rid))
    queries = data.draw(st.lists(st.lists(near_tokens(pool), min_size=1, max_size=3),
                                 min_size=1, max_size=4))
    shadow = {}

    def ask(store):
        for words in queries:
            check_query(store, shadow, words)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "env.jsonl")
        open(path, "w").close()  # the drawn writes may all be skipped
        with EnvStore(log_path=path) as store:
            ask(store)
            for op in data.draw(st.lists(write, min_size=1, max_size=20)):
                kind = op[0]
                if kind == "create" and op[1] not in shadow:
                    shadow[op[1]] = rec(op[1], op[2])
                    store.create(shadow[op[1]])
                elif kind == "ingest":
                    new = store.ingest({"class": "object", "tags": sorted(op[1])})
                    shadow[new] = rec(new, op[1], source=Source.FUSION)
                elif kind == "update" and op[1] in shadow:
                    store.update(op[1], {"tags": op[2]})
                    shadow[op[1]] = shadow[op[1]]._replace(tags=op[2])
                elif kind == "delete" and op[1] in shadow:
                    store.delete(op[1])
                    del shadow[op[1]]
                ask(store)
        reopened = EnvStore.open(path)
        ask(reopened)
        ask(reopened)  # from the plans the first round stored


def counted_fuzzy_tags(monkeypatch):
    """The tokens each ``EnvStore._fuzzy_tags`` call looks up, in order."""
    calls = []
    lookup = EnvStore._fuzzy_tags

    def counting(self, tok):
        calls.append(tok)
        return lookup(self, tok)

    monkeypatch.setattr(EnvStore, "_fuzzy_tags", counting)
    return calls


def test_a_repeated_query_looks_each_token_up_once(monkeypatch):
    store = seeded_store()
    calls = counted_fuzzy_tags(monkeypatch)
    words = ("tunel", "on", "highway", "in", "rain")
    records = store.all_records()
    for _ in range(3):  # the filters are not part of the plan
        assert store.query(OddQuery(words)) == brute_force_query(records, words)
        assert (store.query(OddQuery(words, RecordClass.ROAD_FEATURE, (0, 250)))
                == brute_force_query(records, words, RecordClass.ROAD_FEATURE, (0, 250)))
    assert calls == ["tunel", "highway", "rain"]
    for _ in range(2):  # refused every time, and never stored
        with pytest.raises(EmptyQuery):
            store.query(OddQuery(("on", "the")))
    assert list(store._plans) == [words]


def test_only_a_write_that_changes_the_vocabulary_looks_the_tokens_up_again(monkeypatch):
    store = seeded_store()
    calls = counted_fuzzy_tags(monkeypatch)
    words = ("tunels", "fog")  # "tunels" is one edit from "tunnel" and from "tunnels"
    writes = [  # the write, and whether it enters or leaves a tag
        (lambda: store.create(rec(6, {"tunnel", "fog"}, ts=600)), False),
        (lambda: store.update(6, {"tags": ["fog"]}), False),  # "tunnel" is on 1-3 too
        (lambda: store.create(rec(7, {"tunnels", "fog"}, ts=700)), True),
        (lambda: store.update(6, {"timestamp_ns": 50}), False),  # "fog" is on 5 and 7 too
        (lambda: store.update(5, {"tags": ["bridge", "fog", "ice"]}), True),
        (lambda: store.delete(6), False),
        (lambda: store.delete(7), True),  # "tunnels" loses its last posting
        (lambda: store.ingest({"class": "weather", "tags": ["fog"], "timestamp_ns": 9}), False),
    ]
    assert store.query(OddQuery(words)) == brute_force_query(store.all_records(), words)
    for i, (write, changes) in enumerate(writes):
        calls.clear()
        write()
        for _ in range(2):
            assert store.query(OddQuery(words)) == brute_force_query(store.all_records(), words)
        assert calls == (list(words) if changes else []), i


def test_the_query_plans_stay_within_their_bound():
    store = seeded_store()
    limit = dfp.envmodel._MEMO_LIMIT
    for i in range(limit + 10):
        words = ("tunnel", f"w{i}") if i % 2 else (f"rain{i}", "fog")
        assert store.query(OddQuery(words)) == []
        assert 0 < len(store._plans) <= limit
    records = store.all_records()
    assert store.query(OddQuery(("tunel",))) == brute_force_query(records, ["tunel"])


class _LoggedRun(list):
    """A postings list that logs each change made to it as ``(tag, how)``."""

    def __init__(self, tag, run, log):
        super().__init__(run)
        self.tag, self.log = tag, log

    def __setitem__(self, index, value):
        self.log.append((self.tag, "set"))
        super().__setitem__(index, value)

    def __delitem__(self, index):
        self.log.append((self.tag, "del"))
        super().__delitem__(index)

    def insert(self, index, value):
        self.log.append((self.tag, "insert"))
        super().insert(index, value)

    def append(self, value):
        self.log.append((self.tag, "append"))
        super().append(value)


def test_tags_only_update_keeps_its_order_entry():
    """An update that keeps the timestamp puts the new record in the old
    one's place in the postings of every tag both carry: the same list, the
    same index, the same length, by one assignment and no delete or insert.
    A tag it drops loses the id, a tag it adds gains it."""
    store, _ = corpus_store(random.Random(5))
    log = []
    store._postings = {tag: _LoggedRun(tag, run, log) for tag, run in store._postings.items()}
    patches = [(rid, lambda old: {"tags": {"snow", "ramp"}}) for rid in range(0, 50, 7)]
    patches.append((3, lambda old: {"tags": {"fog"}, "timestamp_ns": old.timestamp_ns}))
    # keep every tag but the first, add one
    patches += [(rid, lambda old: {"tags": sorted(old.tags)[1:] + ["ice"]})
                for rid in range(1, 50, 5)]
    kept = 0
    for rid, patch in patches:
        old = store.read(rid)
        places = {tag: (store._postings[tag], store._postings[tag].index(old),
                        len(store._postings[tag])) for tag in old.tags}
        log.clear()
        new = store.update(rid, patch(old))
        for tag, (run, i, size) in places.items():
            if tag in new.tags:
                assert store._postings[tag] is run and run[i] is new and len(run) == size
                assert [entry for entry in log if entry[0] == tag] == [(tag, "set")]
                kept += 1
            else:
                assert rid not in [r.record_id for r in store._postings.get(tag, ())]
        for tag in new.tags - old.tags:
            assert new in store._postings[tag]
        check_postings(store)
    assert kept >= 10  # the cases above keep some tags
    records = store.all_records()
    window = (2000, 8000)
    for words in (["snow"], ["ramp", "snw"], ["fog"], ["tunnel", "ramp"], ["highway"]):
        assert store.query(OddQuery(tuple(words))) == brute_force_query(records, words)
        assert (store.query(OddQuery(tuple(words), time_range=window))
                == brute_force_query(records, words, time_range=window))


class _SlicedRun(list):
    """A postings list that logs the id of each record a slice of it hands out."""

    def __init__(self, run, examined):
        super().__init__(run)
        self.examined = examined

    def __getitem__(self, index):
        got = super().__getitem__(index)
        if isinstance(index, slice):
            self.examined.extend(r.record_id for r in got)
        return got


def driver_postings(records, words, window):
    """By scan: the in-window postings, as ids with repeats, of the first
    token with the fewest of them."""
    best = None
    tokens = [w.strip().lower() for w in words]
    for tok in [w for w in tokens if w and w not in STOPWORDS]:
        hits = [r.record_id for r in records for t in r.tags
                if one_edit_match(tok, t)
                and (window is None or window[0] <= r.timestamp_ns <= window[1])]
        if best is None or len(hits) < len(best):
            best = hits
    return Counter(best)


def test_query_plan_follows_the_window_and_the_rarest_token():
    """A query reads exactly the in-window postings of the token with the
    fewest of them, and nothing else; when that token matches two tags it
    reads both runs and returns a record they share once, ties in order."""
    store = EnvStore()
    for rid in range(40):  # "lead" on every record, "rain" on every tenth
        tags = {"lead", "rain"} if rid % 10 == 0 else {"lead"}
        store.create(rec(rid, tags, ts=rid // 3))
    # at one timestamp: "rain" matches "rail" too, and some records carry both
    for rid, tags in ((40, {"rail", "rain"}), (41, {"rail"}), (42, {"rain", "rail"}),
                      (43, {"rain"}), (44, {"rail", "rain"}), (45, {"lead", "rail"})):
        store.create(rec(rid, tags, ts=20))
    examined = []
    store._postings = {tag: _SlicedRun(run, examined) for tag, run in store._postings.items()}
    shadow = {r.record_id: r for r in store.all_records()}
    cases = [  # words, window, how many postings the driver has there
        (["lead"], None, 41),           # one token: all of its postings
        (["lead", "rain"], None, 13),   # "rain" + "rail" postings against 41
        (["rain"], (3, 3), 1),          # the window inside the postings
        (["rain", "lead"], (0, 12), 4),  # 4 against 39: the driver need not come first
        (["lead"], (5, 5), 3),          # three ids tie at one timestamp
        (["rain"], (20, 20), 9),        # two runs, three records in both, all tied
        (["rail", "lead"], (19, 21), 1),  # 9 against 1
    ]
    for words, window, size in cases:
        examined.clear()
        check_query(store, shadow, words, None, window)
        assert Counter(examined) == driver_postings(shadow.values(), words, window), words
        assert len(examined) == size, (words, window)
    got = store.query(OddQuery(("rain",), time_range=(20, 20)))
    assert [r.record_id for r in got] == [40, 41, 42, 43, 44, 45]


# -- saved ODDs ---------------------------------------------------------------------

def test_saved_odd_equals_direct_query_and_sees_new_records():
    store = seeded_store()
    q = OddQuery(("tunnel", "rain"))
    store.save_odd("wet_tunnel", q)
    assert store.run_odd("wet_tunnel") == store.query(q)
    store.create(rec(50, {"tunnel", "rain"}, ts=999))
    assert [r.record_id for r in store.run_odd("wet_tunnel")][0] == 50


STANDING_ODDS = {
    "rain": OddQuery(("rain",)),
    "typo": OddQuery(("raim", "the", "tunel")),  # "raim" is one edit from two tags
    "exact": OddQuery(("ice",), RecordClass.WEATHER),  # too short for a fuzzy match
    "lead": OddQuery(("vehicle", "lead")),  # every radar frame
    "window": OddQuery(("rail",), time_range=(1, 2)),
    "both": OddQuery(("snow", "fog"), RecordClass.OBJECT, (0, 2)),
}
# "rain" on every other tag set, so updates often move records that a saved
# ODD holds; ids 0-4 are few, so updates and deletes often find a record
rainy_tag_sets = st.tuples(tag_sets, st.booleans()).map(
    lambda p: p[0] | {"rain"} if p[1] else p[0])
standing_updates = st.tuples(st.just("update"), record_ids, st.none() | rainy_tag_sets,
                             st.none() | timestamps, st.integers(0, 9))
standing_ops = st.one_of(
    st.tuples(st.just("create"), record_ids, rainy_tag_sets, timestamps, classes),
    st.tuples(st.just("frame"), timestamps),
    st.tuples(st.just("mapping"), rainy_tag_sets, timestamps, classes),
    standing_updates,
    standing_updates,
    st.tuples(st.just("delete"), record_ids),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("save"), st.sampled_from(sorted(STANDING_ODDS))),
)


def frame_record(rid, ts):
    """The record ``ingest`` makes of a radar frame."""
    attributes = {"range_m": 40.0 + rid}
    return (AbstractFrame("radar0", DeviceKind.RADAR, rid, ts, attributes),
            EnvRecord(rid, RecordClass.OBJECT, frozenset({"vehicle", "lead"}), ts, attributes,
                      (attributes["range_m"], 0.0), Source.PERCEPTION))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(sorted(STANDING_ODDS)), unique=True, min_size=1, max_size=3),
       st.lists(standing_ops, max_size=30))
@example(["rain", "window"], [  # each way a write can move a standing entry
    ("create", 0, frozenset({"rain", "rail"}), 1, RecordClass.OBJECT),
    ("update", 0, None, None, 3),  # stays in both, same place, new record
    ("update", 0, None, 3, 4),  # moves in "rain", leaves "window"
    ("frame", 2),
    ("save", "lead"),
    ("frame", 0),  # lands before the last match
    ("update", 1, None, 1, 5),
    ("delete", 0),
    ("reopen",),
    ("mapping", frozenset({"rail"}), 2, RecordClass.WEATHER),
])
def test_saved_odds_equal_the_query_and_a_scan_after_every_write(initial, ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "env.jsonl")
        open(path, "w").close()
        store = EnvStore(log_path=path)
        shadow, next_id, saved = {}, 0, []

        def save(name):
            if name in saved:
                with pytest.raises(DuplicateOddName):
                    store.save_odd(name, STANDING_ODDS[name])
            else:
                store.save_odd(name, STANDING_ODDS[name])
                saved.append(name)

        for name in initial:  # saved before any record exists
            save(name)
        for op in ops:
            kind = op[0]
            if kind == "create":
                _, rid, tags, ts, cls = op
                if rid in shadow:
                    with pytest.raises(DuplicateId):
                        store.create(rec(rid, tags, ts=ts, cls=cls))
                else:
                    shadow[rid] = rec(rid, tags, ts=ts, cls=cls)
                    store.create(shadow[rid])
                    next_id = max(next_id, rid + 1)
            elif kind == "frame":
                frame, shadow[next_id] = frame_record(next_id, *op[1:])
                assert store.ingest(frame) == next_id
                next_id += 1
            elif kind == "mapping":
                _, tags, ts, cls = op
                assert store.ingest({"class": cls.value, "tags": sorted(tags),
                                     "timestamp_ns": ts}) == next_id
                shadow[next_id] = rec(next_id, tags, ts=ts, cls=cls, source=Source.FUSION)
                next_id += 1
            elif kind == "update":
                _, rid, tags, ts, mark = op
                patch = {"attributes": {"mark": mark}}  # "neither" still makes a new record
                if tags is not None:
                    patch["tags"] = tags
                if ts is not None:
                    patch["timestamp_ns"] = ts
                if rid in shadow:
                    store.update(rid, patch)
                    shadow[rid] = shadow[rid]._replace(**patch)
                else:
                    with pytest.raises(NotFound):
                        store.update(rid, patch)
            elif kind == "delete":
                _, rid = op
                if rid in shadow:
                    store.delete(rid)
                    del shadow[rid]
                else:
                    with pytest.raises(NotFound):
                        store.delete(rid)
            elif kind == "reopen":
                store.close()
                store = EnvStore.open(path)
                for name in saved:
                    store.save_odd(name, STANDING_ODDS[name])
            else:
                save(op[1])
            for name in saved:
                q = STANDING_ODDS[name]
                got = store.run_odd(name)
                assert got == store.query(q), (name, op)
                assert got == brute_force_query(shadow.values(), q.tokens, q.class_filter,
                                                q.time_range), (name, op)
        store.close()


def test_run_odd_returns_a_new_list_each_call():
    store = seeded_store()
    store.save_odd("wet", OddQuery(("rain",)))
    first = store.run_odd("wet")
    first.clear()
    assert [r.record_id for r in store.run_odd("wet")] == [4, 2, 1]


def test_the_saved_odds_by_tag_set_memo_holds_nothing_without_an_odd_and_stays_bounded():
    store = EnvStore()
    for i in range(780):  # each write a tag set of its own
        store.create(rec(i, {f"a{i}", f"b{i}"}))
        store.delete(i)
    assert store._odds_by_tags == {}
    store.save_odd("wet", OddQuery(("rain",)))
    limit = dfp.envmodel._MEMO_LIMIT
    for i in range(limit + 10):
        store.create(rec(1000 + i, {"rain", f"c{i}"}, ts=i))
        assert 0 < len(store._odds_by_tags) <= limit
    want = brute_force_query(store.all_records(), ["rain"])
    assert store.run_odd("wet") == store.query(OddQuery(("rain",))) == want
    assert len(want) == limit + 10


@pytest.mark.parametrize("kwargs", [
    {"tokens": "rain"},  # a str would split into one-letter tokens
    {"tokens": ["rain"]},
    {"tokens": None},
    {"tokens": ("rain", 5)},
    {"tokens": ("rain", b"fog")},
    {"tokens": ("rain",), "class_filter": "weather"},  # a value, not a member
    {"tokens": ("rain",), "class_filter": Source.V2X},
    {"tokens": ("rain",), "class_filter": 3},
], ids=["str", "list", "none", "int_token", "bytes_token", "class_value", "other_enum",
        "class_int"])
def test_a_query_refuses_tokens_and_a_class_filter_it_cannot_answer(kwargs):
    with pytest.raises(InvalidQuery, match="^(tokens|class_filter) must be"):
        OddQuery(**kwargs)


def test_a_query_window_is_two_ints():
    assert OddQuery(("rain",), time_range=(1, 2)).time_range == (1, 2)
    for window in ((1,), (1, 2, 3), [1, 2], (1.5, 2), (True, 2), (1, "2"), 5):
        with pytest.raises(InvalidQuery, match="time_range must be a tuple of two ints"):
            OddQuery(("rain",), time_range=window)


def test_odd_name_collision_and_missing():
    store = seeded_store()
    store.save_odd("x", OddQuery(("tunnel",)))
    with pytest.raises(DuplicateOddName):
        store.save_odd("x", OddQuery(("rain",)))
    with pytest.raises(OddNotFound):
        store.run_odd("missing")


# -- ingestion ------------------------------------------------------------------------

def test_radar_frame_becomes_lead_vehicle_object():
    handle = DeviceRegistry().register_device(
        DeviceDescriptor("radar0", DeviceKind.RADAR, 20.0, 3))
    frame = normalize(handle.stamp(
        {"range_km": 0.05, "range_rate_mps": -2.0, "azimuth_rad": 0.0}))
    store = EnvStore()
    rid = store.ingest(frame)
    got = store.read(rid)
    assert got.record_class == RecordClass.OBJECT
    assert {"vehicle", "lead"} <= got.tags
    assert got.position == (50.0, 0.0)
    assert got.attributes["range_rate_mps"] == -2.0


def test_the_hal_and_the_store_keep_the_dicts_they_are_given():
    handle = DeviceRegistry().register_device(
        DeviceDescriptor("radar0", DeviceKind.RADAR, 20.0, 3))
    raw = {"range_km": 0.05, "range_rate_mps": -2.0, "azimuth_rad": 0.0}
    sensor = handle.stamp(raw)
    assert sensor.raw is raw
    frame = normalize(sensor)
    store = EnvStore()
    assert store.read(store.ingest(frame)).attributes is frame.normalized


def test_weather_mapping_ingest_tags_true_booleans():
    store = EnvStore()
    rid = store.ingest({"class": "weather", "attributes": {"rain": True, "temp_c": 4}})
    got = store.read(rid)
    assert got.record_class == RecordClass.WEATHER
    assert got.tags == frozenset({"rain"})
    with pytest.raises(InvalidRecord, match="tags must be non-empty"):  # "fog\n" is no tag word
        store.ingest({"class": "weather", "attributes": {"fog\n": True}})


def test_every_radar_record_tag_is_valid():
    # frame ingest skips the reader: its tags can only come from this constant
    _, tags, _ = _RADAR_RECORD
    assert tags and all(_TAG_RE.match(tag) for tag in tags)


def test_invalid_mapping_ingest_is_rejected_and_changes_nothing():
    store = EnvStore()
    store.ingest({"class": "weather", "tags": ["rain"]})
    records = store.all_records()
    postings = {tag: list(run) for tag, run in store._postings.items()}
    with pytest.raises(InvalidRecord):
        store.ingest({"class": "weather", "tags": ["Bad Tag"]})
    assert store.all_records() == records
    assert store._postings == postings
    assert store.ingest({"class": "weather", "tags": ["fog"]}) == 1  # next id unchanged


def test_mapping_ingest_refuses_a_string_for_tags():
    store = EnvStore()
    with pytest.raises(InvalidRecord, match="'fog'"):
        store.ingest({"class": "weather", "tags": "fog"})
    assert store.all_records() == []


def test_update_and_mapping_ingest_keep_the_attributes_dict_they_are_given():
    store = EnvStore()
    given = {"rain": True}
    rid = store.ingest({"class": "weather", "attributes": given})
    assert store.read(rid).attributes is given
    patched = {"rain": True, "temp_c": 4}
    assert store.update(rid, {"attributes": patched}).attributes is patched
    assert store.read(rid).tags == frozenset({"rain"})  # an update adds no tag


def _base_fields():
    return {"class": "weather", "tags": ["fog"], "timestamp_ns": 5, "attributes": {"k": 1},
            "position": [1.0, 2.0], "source": "fusion"}


# (field, value, refused): each value the write paths used to coerce or let
# escape as a bare TypeError or ValueError, then its good twin
ONE_READER_CASES = [
    ("timestamp_ns", "7", True), ("timestamp_ns", 7, False),
    ("timestamp_ns", "12", True), ("timestamp_ns", 12, False),
    ("timestamp_ns", 1.9, True), ("timestamp_ns", 2, False),
    ("timestamp_ns", True, True), ("timestamp_ns", 1, False),
    ("tags", {"fog": 1}, True), ("tags", ["fog"], False),
    ("tags", None, True), ("tags", ["fog", "rain"], False),
    ("tags", "fog", True), ("tags", ["rain"], False),
    ("attributes", 5, True), ("attributes", {"n": 5}, False),
    ("class", "bogus", True), ("class", "weather", False),
    ("source", "radio", True), ("source", "v2x", False),
]


def _write_outcome(store, log, write):
    """``write()``'s record fields past the id, or "refused" when it raises
    ``InvalidRecord`` with the store and its log unchanged."""
    def state():
        return (dict(store._records), {tag: list(run) for tag, run in store._postings.items()},
                store._next_id, log.read_bytes())
    before = state()
    try:
        return tuple(write())[1:]
    except InvalidRecord:
        assert state() == before
        return "refused"


@pytest.mark.parametrize("field, value, refused", ONE_READER_CASES,
                         ids=[f"{f}={v!r}" for f, v, _ in ONE_READER_CASES])
def test_update_ingest_and_open_read_a_field_alike(tmp_path, field, value, refused):
    outcomes = []
    for name, write in (("update", lambda store: store.update(0, {field: value})),
                        ("ingest", lambda store: store.read(
                            store.ingest({**_base_fields(), field: value})))):
        log = tmp_path / f"{name}.jsonl"
        with EnvStore(log_path=str(log)) as store:
            store.ingest(_base_fields())
            outcomes.append(_write_outcome(store, log, lambda: write(store)))
    path = tmp_path / "open.jsonl"
    text = json.dumps({**_base_fields(), "record_id": 0, field: value}) + "\n"
    path.write_text(text)
    try:
        (got,) = EnvStore.open(str(path)).all_records()
        outcomes.append(tuple(got)[1:])
    except InvalidRecord:
        assert path.read_text() == text
        outcomes.append("refused")
    assert outcomes == [outcomes[0]] * 3
    assert (outcomes[0] == "refused") == refused


def test_reingesting_same_frame_gives_distinct_ids_equal_content():
    handle = DeviceRegistry().register_device(
        DeviceDescriptor("radar0", DeviceKind.RADAR, 10.0, 3))
    frame = normalize(handle.tick(1)[0])
    store = EnvStore()
    a = store.ingest(frame)
    b = store.ingest(frame)
    assert a != b
    ra, rb = store.read(a), store.read(b)
    assert ra.tags == rb.tags and ra.attributes == rb.attributes
    assert ra.record_class == rb.record_class


# -- persistence -------------------------------------------------------------------

def test_jsonl_log_replay_rebuilds_store(tmp_path):
    path = tmp_path / "env.jsonl"
    with EnvStore(log_path=str(path)) as store:
        store.create(rec(1, {"tunnel"}, ts=10))
        store.create(rec(2, {"rain"}, ts=20))
        store.update(2, {"tags": {"rain", "heavy"}})
        store.create(rec(3, {"fog"}, ts=30))
        store.delete(3)
    reopened = EnvStore.open(str(path))
    assert {r.record_id for r in reopened.all_records()} == {1, 2}
    assert reopened.read(2).tags == frozenset({"rain", "heavy"})


def test_dump_jsonl_snapshot(tmp_path):
    path = tmp_path / "snap.jsonl"
    store = seeded_store()
    store.dump_jsonl(str(path))
    again = EnvStore.open(str(path))
    assert again.all_records() == store.all_records()


def test_reopen_does_not_reissue_the_highest_deleted_id(tmp_path):
    path = str(tmp_path / "env.jsonl")
    live = EnvStore(log_path=path)
    for _ in range(3):
        live.ingest({"class": "weather", "tags": ["rain"]})
    live.delete(2)
    reopened = EnvStore.open(path)
    assert live.ingest({"class": "weather", "tags": ["fog"]}) == 3
    assert reopened.ingest({"class": "weather", "tags": ["fog"]}) == 3
    live.close()
    reopened.close()


@pytest.mark.parametrize("kept", [1, 20, -1])  # -1: only the newline was lost
def test_open_discards_a_torn_last_line_and_appends_after_it(tmp_path, kept):
    path = str(tmp_path / "env.jsonl")
    live = EnvStore(log_path=path)
    for ts in range(3):
        live.ingest({"class": "weather", "tags": ["rain"], "timestamp_ns": ts})
    whole = os.path.getsize(path)
    live.ingest({"class": "weather", "tags": ["fog"], "timestamp_ns": 3})
    with open(path, "r+b") as fh:  # a crash cut the fourth line short
        fh.truncate(whole + kept if kept > 0 else os.path.getsize(path) + kept)
    reopened = EnvStore.open(path)
    assert [r.record_id for r in reopened.all_records()] == [0, 1, 2]
    assert os.path.getsize(path) == whole
    reopened.ingest({"class": "weather", "tags": ["snow"], "timestamp_ns": 4})
    again = EnvStore.open(path)
    assert again.all_records() == reopened.all_records()
    assert [sorted(r.tags) for r in again.all_records()] == [["rain"]] * 3 + [["snow"]]
    # the first store still holds the handle it wrote the torn line with: its
    # next line goes after the new end, not at the offset it had reached
    live.ingest({"class": "weather", "tags": ["hail"], "timestamp_ns": 5})
    last = EnvStore.open(path)
    assert [sorted(r.tags) for r in last.all_records()] == [["rain"]] * 3 + [["snow"], ["hail"]]
    assert [r.record_id for r in last.all_records()] == [0, 1, 2, 3, 4]
    live.close()
    reopened.close()


def test_open_still_rejects_a_bad_complete_line(tmp_path):
    path = tmp_path / "env.jsonl"
    good = json.dumps(rec(1, {"rain"}).to_json_obj())
    for text in (f"{good}\n{{bad\n{good}\n", f"{good}\n{{bad\n", f"{{bad\n{good}",
                 f"\ufeff{good}\n"):  # a byte-order mark is not JSON either
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError):
            EnvStore.open(str(path))
        assert path.read_text() == text  # nothing was truncated


def test_open_names_the_line_that_is_json_but_not_a_record(tmp_path):
    path = tmp_path / "env.jsonl"
    good = json.dumps(rec(1, {"rain"}).to_json_obj())
    bad_lines = {
        "bad tag": {**rec(2, {"rain"}).to_json_obj(), "tags": ["Bad Tag"]},
        r"bad tag 'rain\\n'": {**rec(2, {"rain"}).to_json_obj(), "tags": ["rain\n"]},
        "missing key 'class'": {k: v for k, v in rec(2, {"rain"}).to_json_obj().items()
                                if k != "class"},
        "record_id must be an int, not 'two'":
            {**rec(2, {"rain"}).to_json_obj(), "record_id": "two"},
        "not a valid RecordClass": {**rec(2, {"rain"}).to_json_obj(), "class": "cloud"},
        "missing key 'record_id'": {"deleted": True},
        "has no attribute": [2, "rain"],
        # line 1 brought the valid set {"rain"}; this set adds a bad tag to
        # it, so it is another set and gets its own check
        "bad tag 'Rain'": {**rec(2, {"rain"}).to_json_obj(), "tags": ["rain", "Rain"]},
        r"\['object'\] is not a valid RecordClass":
            {**rec(2, {"rain"}).to_json_obj(), "class": ["object"]},
        "'radio' is not a valid Source": {**rec(2, {"rain"}).to_json_obj(), "source": "radio"},
        r"position must be \(x_m, y_m\)":
            {**rec(2, {"rain"}).to_json_obj(), "position": [1.0, 2.0, 3.0]},
        "record_id out of u64 range: 18446744073709551616":
            {**rec(2, {"rain"}).to_json_obj(), "record_id": 2**64},
        "cannot convert dictionary update sequence element #0":
            {**rec(2, {"rain"}).to_json_obj(), "attributes": [1]},
    }
    for why, obj in bad_lines.items():
        text = f"{good}\n{json.dumps(obj)}\n{good}\n"
        path.write_text(text)
        with pytest.raises(InvalidRecord, match=f"^line 2: .*{why}"):
            EnvStore.open(str(path))
        assert path.read_text() == text


def test_open_refuses_a_value_it_would_have_to_coerce(tmp_path):
    path = tmp_path / "env.jsonl"
    coerced = [  # (field, value, the fragment the refusal names)
        ("record_id", 2.9, "record_id must be an int, not 2.9"),
        ("record_id", True, "record_id must be an int, not True"),
        ("timestamp_ns", "7", "timestamp_ns must be an int, not '7'"),
        ("timestamp_ns", 1.5, "timestamp_ns must be an int, not 1.5"),
        ("timestamp_ns", False, "timestamp_ns must be an int, not False"),
        ("position", "ab", r"position must be \(x_m, y_m\)"),
        ("position", ["a", "b"], r"position must be \(x_m, y_m\)"),
        ("position", [True, 1.0], r"position must be \(x_m, y_m\)"),
        ("tags", {"fog": 1}, r"tags must be a list of words, not \{'fog': 1\}"),
    ]
    lines = [({**rec(1, {"rain"}).to_json_obj(), field: value}, why)
             for field, value, why in coerced]
    lines += [({"record_id": value, "deleted": True}, f"record_id must be an int, not {value}")
              for value in (True, 1.5)]
    for obj, why in lines:
        text = json.dumps(obj) + "\n"
        path.write_text(text)
        with pytest.raises(InvalidRecord, match=f"^line 1: {why}$"):
            EnvStore.open(str(path))
        with pytest.raises(ValueError, match="^line 1: "):
            replay_reference(str(path))
        assert path.read_text() == text


def test_a_log_cut_short_opens_as_a_whole_number_of_writes(tmp_path):
    """A write cut short anywhere leaves the store of the writes before it."""
    log = tmp_path / "env.jsonl"
    rng = random.Random(60)
    with EnvStore(log_path=str(log)) as store:
        live = []
        for k in range(60):
            op = rng.choice(("create", "create", "update", "delete")) if live else "create"
            if op == "create":
                tags = rng.sample(["tunnel", "rain", "fog", "lead", "vehicle"], rng.randint(1, 3))
                position = (rng.uniform(-50, 50), 0.0) if rng.random() < 0.5 else None
                live.append(store.create(rec(10 + k, tags, ts=rng.randint(0, 999),
                                             attributes={"range_m": k}, position=position)))
            elif op == "update":
                store.update(rng.choice(live), {"tags": ["rain", f"t{k}"], "timestamp_ns": k})
            else:
                # the newest half the time, so a tombstone holds the highest id
                store.delete(live.pop(-1 if rng.random() < 0.5 else rng.randrange(len(live))))
    data = log.read_bytes()
    writes = data.split(b"\n")[:-1]
    assert len(writes) == 60 and data.endswith(b"\n")
    # the reference state after each whole number of writes
    after = []
    for n in range(61):
        log.write_bytes(b"".join(line + b"\n" for line in writes[:n]))
        after.append(replay_reference(str(log)))
    # every third cut, and every cut within a byte of a line's end: a pass
    # over every cut holds too but takes about 4 s
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    cuts = set(range(0, len(data) + 1, 3)) | {end + d for end in ends for d in (-1, 0, 1)}
    copy = tmp_path / "copy.jsonl"
    for size in sorted(cut for cut in cuts if cut <= len(data)):
        prefix = data[:size]
        copy.write_bytes(prefix)
        store = EnvStore.open(str(copy))
        records, postings, next_id, kept = after[prefix.count(b"\n")]
        assert {r.record_id: (r.record_class.value, sorted(r.tags), r.timestamp_ns,
                              r.attributes, r.position, r.source.value)
                for r in store.all_records()} == records, size
        assert (posting_ids(store), store._next_id) == (postings, next_id)
        assert store._near == near_index(postings)
        assert copy.read_bytes() == kept, size


def test_open_refuses_a_log_line_with_a_string_for_tags(tmp_path):
    path = tmp_path / "env.jsonl"
    good = json.dumps(rec(1, {"rain"}).to_json_obj())
    bad = json.dumps({**rec(2, {"snow"}).to_json_obj(), "tags": "snow"})
    path.write_text(f"{good}\n{bad}\n")
    with pytest.raises(InvalidRecord, match="^line 2: .*'snow'"):
        EnvStore.open(str(path))


def test_open_reads_attributes_given_as_a_list_of_pairs(tmp_path):
    path = tmp_path / "env.jsonl"
    obj = {**rec(1, {"lane"}).to_json_obj(), "attributes": [["lane_count", 2], ["width_m", 3.5]]}
    path.write_text(json.dumps(obj) + "\n")
    assert EnvStore.open(str(path)).read(1).attributes == {"lane_count": 2, "width_m": 3.5}


def test_open_shares_one_frozenset_per_tag_set(tmp_path):
    path = tmp_path / "env.jsonl"
    lines = [{**rec(1, {"lead"}).to_json_obj(), "tags": ["lead", "vehicle"]},
             {**rec(2, {"lead"}).to_json_obj(), "tags": ["vehicle", "lead", "lead"]},
             {**rec(3, {"lead"}).to_json_obj(), "tags": ["rain"]}]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    with EnvStore.open(str(path)) as store:
        assert store.read(1).tags is store.read(2).tags
        assert store.read(3).tags == frozenset({"rain"})
        store.update(1, {"tags": ["lead", "vehicle", "fog"]})
        assert store.read(1).tags == frozenset({"lead", "vehicle", "fog"})
        assert store.read(2).tags == frozenset({"lead", "vehicle"})
        assert store.query(OddQuery(("fog",))) == [store.read(1)]


LOG_TAG_LISTS = [["lead", "vehicle"], ["vehicle", "lead"], ["rain"], ["rain", "rain"],
                 ["fog", "rain"], ["rain", "fog", "snow"]]
OPTIONAL_KEYS = ("attributes", "position", "source")
log_records = st.tuples(
    st.fixed_dictionaries({
        "record_id": st.integers(min_value=0, max_value=6),  # few ids, so updates are common
        "class": st.sampled_from([c.value for c in RecordClass]),
        "tags": st.sampled_from(LOG_TAG_LISTS)
        | st.lists(st.sampled_from(INDEX_TAGS), min_size=1, max_size=3),
        "timestamp_ns": timestamps,
        "attributes": st.dictionaries(st.sampled_from(["range_m", "confidence"]),
                                      st.integers(-5, 5) | st.floats(-1e3, 1e3), max_size=2),
        "position": st.none() | st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
        "source": st.sampled_from([s.value for s in Source]),
    }),
    st.sets(st.sampled_from(OPTIONAL_KEYS)),  # the keys this line leaves out
).map(lambda pair: {k: v for k, v in pair[0].items() if k not in pair[1]})
log_lines = st.one_of(
    log_records,
    st.builds(lambda rid: {"record_id": rid, "deleted": True},
              st.integers(min_value=0, max_value=8)),
    st.none(),  # a blank line
)


@settings(max_examples=200, deadline=None)
@given(st.lists(log_lines, max_size=30),
       st.none() | st.tuples(log_records, st.integers(min_value=0, max_value=300)))
def test_open_equals_a_plain_replay_of_a_random_log(entries, torn):
    text = "".join("\n" if obj is None else json.dumps(obj, sort_keys=True) + "\n"
                   for obj in entries)
    if torn is not None:  # a last line cut short, at least by its newline
        obj, kept = torn
        text += json.dumps(obj, sort_keys=True)[:kept]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "env.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        records, postings, next_id, kept_bytes = replay_reference(path)
        store = EnvStore.open(path)
        with open(path, "rb") as fh:
            assert fh.read() == kept_bytes
    assert {r.record_id: (r.record_class.value, sorted(r.tags), r.timestamp_ns, r.attributes,
                          r.position, r.source.value)
            for r in store.all_records()} == records
    assert posting_ids(store) == postings
    check_postings(store)
    assert store._next_id == next_id
    assert store._near == near_index(postings)


# -- the log handle -----------------------------------------------------------------

@pytest.fixture
def write_handles(monkeypatch):
    """Every file the envmodel module opens to write or append, in order."""
    handles = []

    def counting_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if set(mode) & set("wax+"):
            handles.append(fh)
        return fh

    monkeypatch.setattr(dfp.envmodel, "open", counting_open, raising=False)
    return handles


def every_kind_of_write(store, rounds):
    """Creates, frame and mapping ingests, updates and deletes; yields after each."""
    handle = DeviceRegistry().register_device(
        DeviceDescriptor("radar0", DeviceKind.RADAR, 20.0, 3))
    for k in range(rounds):
        # the ingests take the ids after it, clear of the next round's create
        rid = store.create(rec(100 * (k + 1), {"tunnel", "rain"}, ts=k))
        yield
        store.ingest(normalize(handle.stamp(
            {"range_km": 0.05, "range_rate_mps": -1.0, "azimuth_rad": 0.0})))
        yield
        store.ingest({"class": "weather", "attributes": {"fog": True}, "timestamp_ns": k})
        yield
        store.update(rid, {"tags": ["tunnel", "snow"], "timestamp_ns": k + 1})
        yield
        store.delete(rid)
        yield


def test_writes_open_the_log_once(tmp_path, write_handles):
    path = str(tmp_path / "env.jsonl")
    with EnvStore(log_path=path) as store:
        assert write_handles == []  # the constructor opens nothing
        for _ in every_kind_of_write(store, 20):
            pass
    assert len(write_handles) == 1
    assert EnvStore.open(path).all_records() == store.all_records()


def test_open_and_queries_open_no_write_handle(tmp_path, write_handles):
    path = str(tmp_path / "env.jsonl")
    with EnvStore(log_path=path) as store:
        for _ in every_kind_of_write(store, 3):
            pass
    write_handles.clear()
    reader = EnvStore.open(path)
    reader.save_odd("rain", OddQuery(("rain",)))
    reader.query(OddQuery(("lead", "vehicle")))
    reader.run_odd("rain")
    reader.all_records()
    assert write_handles == []


def test_every_write_reaches_the_file_before_it_returns(tmp_path):
    path = str(tmp_path / "env.jsonl")
    with EnvStore(log_path=path) as store:
        for _ in every_kind_of_write(store, 4):
            assert EnvStore.open(path).all_records() == store.all_records()


def test_close_twice_with_block_and_write_after_close(tmp_path, write_handles):
    path = str(tmp_path / "env.jsonl")
    store = EnvStore(log_path=path)
    store.close()  # nothing open yet
    store.create(rec(1, {"rain"}))
    store.close()
    store.close()
    assert [fh.closed for fh in write_handles] == [True]
    store.create(rec(2, {"fog"}))  # opens the log again
    assert len(write_handles) == 2 and not write_handles[1].closed
    store.close()
    with EnvStore.open(path) as reopened:
        assert len(write_handles) == 2  # opening and reading hold no handle
        reopened.delete(1)
    assert len(write_handles) == 3 and all(fh.closed for fh in write_handles)
    assert [r.record_id for r in EnvStore.open(path).all_records()] == [2]


def test_log_lines_are_json_dumps_byte_for_byte(tmp_path):
    path = tmp_path / "env.jsonl"
    with EnvStore(log_path=str(path)) as store:
        entries = [store.read(store.create(
            rec(7, {"rain", "night"}, ts=3, attributes={"note": "Straße ☂", "mu": 0.1},
                position=(1.5, -2.0), source=Source.CLOUD)))]
        entries.append(store.read(store.ingest(
            {"class": "weather", "attributes": {"fog": True, "temp_c": -4}})))
        entries.append(store.update(7, {"tags": ["rain"], "attributes": {"n": None}}))
        store.delete(8)
    objs = [e.to_json_obj() for e in entries] + [{"record_id": 8, "deleted": True}]
    expected = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)
    assert path.read_bytes() == expected.encode("utf-8")
    snapshot = tmp_path / "snap.jsonl"
    store.dump_jsonl(str(snapshot))
    assert snapshot.read_bytes() == (json.dumps(entries[2].to_json_obj(), sort_keys=True)
                                     + "\n").encode("utf-8")
