"""Environment record store: CRUD, fuzzy token queries, saved ODDs.

Records are classified and tag-normalized. A query is a list of raw words;
connector stopwords are dropped and every remaining token must fuzzy-match
at least one tag of a record for it to qualify (exact match, or edit
distance <= 1 for tokens of length >= 4). Results order by newest first,
then ascending record id, so result lists are stable for golden tests.

The store keeps two indexes that ``_put`` and ``_unpost`` keep in step
with every write and ``open`` builds after its replay. The postings map
each tag to its live records ascending by ``(timestamp_ns, -record_id)``,
which read backwards is the result order: postings kept in reading order,
so no answer needs a sort (Zobel and Moffat, ACM Computing Surveys 38(2),
2006). ``_near`` maps each string made by deleting one character of a
live tag to the live tags that give it (a tag enters it with its first
posting and leaves it with its last). A query finds each token's tags
through ``_near`` and the postings, the deletion-neighbourhood lookup for
single-error matching (Mor and Fraenkel, CACM 25(12), 1982). A tag one
edit from the token is one character longer, and deleting one of its
characters gives the token; or one shorter, and it is the token with one
character deleted; or of the same length, and deleting the one position
where the two differ gives the same string. No edit distance runs, and the
lookup costs the token's length, not the vocabulary. Then the query
bisects the time window in each of those tags' postings, walks the
in-window run of the token with the fewest postings there newest first,
and keeps the records whose class passes and whose tags meet every other
token's tags. Each token's tags depend only on the query's words and the
live vocabulary, so the store keeps them as the query's plan in
``_plans``, under its ``tokens``, until a tag gains its first posting or
loses its last (``_index_tag`` and ``_unindex_tag`` clear the plans, and
``open`` runs the first for every tag) or the memo holds ``_MEMO_LIMIT``
plans. So a query asked again costs one dict lookup, two bisects per
matched tag and its rarest token's in-window postings, not the store size;
only its first asking after a change of vocabulary also pays the lookup in
``_near``, which costs its tokens' lengths.

A saved ODD is a standing result: ``save_odd`` seeds its matches with one
``query``, and every write after that tests only the record it adds,
replaces or removes. Whether a record matches depends on nothing else: its
class, its timestamp and its tags. The tag test is memoised by the record's
``tags`` frozenset (``INGEST_TABLE`` shares one per device kind) while an
ODD is saved, in a memo cleared when it holds ``_MEMO_LIMIT`` sets, so a write
pays one dict lookup for the saved ODDs whose tokens its tags match, then
for each of those a class and time check and, when the record passes, an
append (in-order ingests) or a ``bisect``. Saved ODDs its tags do not match
cost it nothing. Reading a saved ODD with ``run_odd`` copies its list and
runs no query.

A record (``EnvRecord``) is an immutable named tuple: its fields read by
name or position, assigning one raises ``AttributeError``, and records
compare as tuples. One reader, ``EnvRecord.from_json_obj``, builds every
record from outside values, keyed as a log line is: each replayed line,
a ``create``d record, an ``update``'s current fields with the patch over
them and an ingested mapping. It coerces nothing. The class and the source
are members or their values; the tags a list, tuple, set or frozenset (not
a str, a dict or None) of at least one ``[a-z0-9_]+`` word; the id and the
timestamp ints, the position None or two ints or floats, where a bool is
none of these. A value it refuses raises ``InvalidRecord``, and a write
it refuses leaves the store and its log as they were. Only an ingested
frame, valid by construction, becomes a record in one positional
construction of its own.

The store keeps the dict it is given: an ingested frame's ``normalized``
dict becomes its record's ``attributes``, not a copy, and so does the
``attributes`` dict of a replayed line, a created record, an update's
patch or an ingested mapping. The rule is the HAL's: whoever hands a dict
over does not change it afterwards, and nothing in the store changes a
record's ``attributes``.

The persistent form is a JSON-lines log, one record object per line;
``delete`` appends a tombstone line ``{"record_id": ..., "deleted": true}``
and opening a log replays it in order. A store opens its log in append
mode once, at its first write, and holds the handle until ``close()``; the
constructor and ``open`` open no write handle. Each write hands its line,
built once by one shared encoder, to the OS in a single write before it
returns, so another ``open`` of the file sees it at once; nothing is
fsynced. A last line with no newline is the mark of a write cut short;
``open`` discards it and truncates the file to its last complete line, so
the next append, by any store, starts a line of its own.

The replay builds each record once: one shared decoder parses the line,
the class and source members come from value tables, and the tuple is
built positionally around the parsed ``attributes`` dict. Tag sets repeat
(every radar record carries ``{"lead", "vehicle"}``), so the replay checks
each distinct tag set once and every record with that set holds the one
checked frozenset.
"""

from __future__ import annotations

import enum
import json
import os
import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from heapq import merge
from operator import attrgetter
from typing import NamedTuple

from dfp import DfpError
from dfp.hal import AbstractFrame, DeviceKind


class EnvModelError(DfpError):
    pass


class DuplicateId(EnvModelError):
    pass


class NotFound(EnvModelError):
    pass


class InvalidRecord(EnvModelError):
    pass


class EmptyQuery(EnvModelError):
    pass


class InvalidQuery(EnvModelError):
    pass


class DuplicateOddName(EnvModelError):
    pass


class OddNotFound(EnvModelError):
    pass


class RecordClass(enum.Enum):
    OBJECT = "object"
    LANE = "lane"
    ROAD_FEATURE = "road_feature"
    WEATHER = "weather"
    LOCALIZATION = "localization"
    V2X_EVENT = "v2x_event"


class Source(enum.Enum):
    PERCEPTION = "perception"
    LOCALIZATION = "localization"
    FUSION = "fusion"
    V2X = "v2x"
    CLOUD = "cloud"


STOPWORDS = frozenset({"on", "in", "at", "the", "a", "an", "of", "and", "with"})
FUZZY_MIN_LEN = 4

_TAG_RE = re.compile(r"^[a-z0-9_]+$")

# one encoder for every log line; ``json.dumps(obj, sort_keys=True)`` would
# build a new one per call and produce the same text
_encode_line = json.JSONEncoder(sort_keys=True).encode
# and one decoder: for a str, ``json.loads`` calls this same method on a
# default decoder, after a check for a leading byte-order mark that only
# changes the message of the JSONDecodeError such a line raises anyway
_decode_line = json.JSONDecoder().decode

# member by value, or by itself: the two forms a record's class or source
# may take
_RECORD_CLASSES = {key: m for m in RecordClass for key in (m.value, m)}
_SOURCES = {key: m for m in Source for key in (m.value, m)}
# each field's key in a log object, in tuple order
_KEYS = ("record_id", "class", "tags", "timestamp_ns", "attributes", "position", "source")
_TAG_TYPES = (list, tuple, set, frozenset)  # what may hold a record's tag words
_RADAR = DeviceKind.RADAR
_NUMBER = (int, float)  # the exact types a position coordinate may have
_STR_TYPE = frozenset({str})  # the one type a query token may have
# how many entries the store's two memos (query plans, saved ODDs by tag
# set) hold before a miss clears them
_MEMO_LIMIT = 1024


def _check_record_id(rid) -> None:
    """A record id is an ``int`` (a bool is not one) in the u64 range."""
    if type(rid) is not int:
        raise InvalidRecord(f"record_id must be an int, not {rid!r}")
    if not 0 <= rid < 2**64:
        raise InvalidRecord(f"record_id out of u64 range: {rid}")


def _check_tags(tags) -> None:
    """The tag rules: at least one tag, each a string of ``[a-z0-9_]+``."""
    if not tags:
        raise InvalidRecord("tags must be non-empty")
    for tag in tags:
        if not isinstance(tag, str) or not _TAG_RE.match(tag):
            raise InvalidRecord(f"bad tag {tag!r} (want [a-z0-9_]+)")


class _RecordFields(NamedTuple):
    record_id: int
    record_class: RecordClass
    tags: frozenset
    timestamp_ns: int
    attributes: dict
    position: tuple | None  # (x_m, y_m)
    source: Source


class EnvRecord(_RecordFields):
    """One environment record: an immutable tuple of its fields.

    The constructor gives each record a dict of its own when
    ``attributes`` is left out, never one shared default. Construction
    does not check; every store entry builds the record it stores through
    ``from_json_obj``, which does, except a frame ingest, whose record is
    valid by construction.
    """

    __slots__ = ()

    def __new__(cls, record_id: int, record_class: RecordClass, tags: frozenset,
                timestamp_ns: int, attributes: dict | None = None,
                position: tuple | None = None, source: Source = Source.PERCEPTION):
        return tuple.__new__(cls, (record_id, record_class, tags, timestamp_ns,
                                   {} if attributes is None else attributes,
                                   position, source))

    def to_json_obj(self) -> dict:
        return {
            "record_id": self.record_id,
            "class": self.record_class.value,
            "tags": sorted(self.tags),
            "timestamp_ns": self.timestamp_ns,
            "attributes": dict(self.attributes),
            "position": list(self.position) if self.position is not None else None,
            "source": self.source.value,
        }

    @classmethod
    def from_json_obj(cls, obj: dict, tag_sets: dict | None = None) -> "EnvRecord":
        """The record ``obj`` describes, keyed as a log line is.

        This is the one reader of a record's fields: ``open`` reads each
        log line with it, ``create`` the record it is given, ``update`` the
        current fields with the patch over them and a mapping ``ingest``
        its payload. The fields are read in tuple order, then checked in
        that order, so a bad object raises what its first fault raises,
        always as ``InvalidRecord``. Nothing is coerced: the class and the
        source are members or their values; ``tags`` is a list, tuple, set
        or frozenset (not a str, a dict or None) of at least one word of
        ``[a-z0-9_]+``; the id and the timestamp are ints, and the position
        is None or two ints or floats, where a bool is none of these. The
        record keeps ``obj["attributes"]`` itself when it is a dict (a list
        of pairs becomes one). ``tag_sets`` maps each tag set that passed
        the tag rules to its one frozenset: a record whose tags are in it
        holds that frozenset and skips the tag rules, and a new set enters
        it only once it has passed them.
        """
        try:
            record_id = obj["record_id"]
            value = obj["class"]
            try:
                record_class = _RECORD_CLASSES[value]
            except (KeyError, TypeError):  # TypeError: a value no dict can hold
                raise InvalidRecord(f"{value!r} is not a valid RecordClass") from None
            tags = obj["tags"]
            if type(tags) not in _TAG_TYPES:
                raise InvalidRecord(f"tags must be a list of words, not {tags!r}")
            tags = frozenset(tags)
            timestamp_ns = obj["timestamp_ns"]
            attributes = obj.get("attributes", ())  # missing: dict(()) is a new {}
            if not isinstance(attributes, dict):
                attributes = dict(attributes)
            position = obj.get("position")
            if position is not None:
                position = tuple(position)
            value = obj.get("source", "perception")
            try:
                source = _SOURCES[value]
            except (KeyError, TypeError):
                raise InvalidRecord(f"{value!r} is not a valid Source") from None
        except KeyError as exc:
            raise InvalidRecord(f"missing key {exc}") from exc
        except (TypeError, ValueError) as exc:  # from frozenset(), dict() or tuple()
            raise InvalidRecord(str(exc)) from exc
        _check_record_id(record_id)
        if tag_sets is None:
            tag_sets = {}
        shared = tag_sets.get(tags)
        if shared is None:
            _check_tags(tags)
            tag_sets[tags] = shared = tags
        if type(timestamp_ns) is not int:
            raise InvalidRecord(f"timestamp_ns must be an int, not {timestamp_ns!r}")
        if position is not None and (len(position) != 2 or type(position[0]) not in _NUMBER
                                     or type(position[1]) not in _NUMBER):
            raise InvalidRecord("position must be (x_m, y_m)")
        return tuple.__new__(cls, (record_id, record_class, shared, timestamp_ns,
                                   attributes, position, source))


def levenshtein(a: str, b: str) -> int:
    """Iterative two-row edit distance."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        row = [i]
        for j, cb in enumerate(b, 1):
            row.append(min(row[-1] + 1, prev[j] + 1, prev[j - 1] + (ca != cb)))
        prev = row
    return prev[-1]


def normalize_token(word: str) -> str:
    return word.strip().lower()


def fuzzy_match(token: str, tag: str) -> bool:
    """Exact, or ``len(token) >= FUZZY_MIN_LEN`` and edit distance <= 1.

    Two necessary conditions throw out most pairs before ``levenshtein``
    runs. The edit distance is at least the length difference. And one
    edit changes the character set by at most two characters: a
    substitution can drop one character and bring in another, an insertion
    or a deletion adds or removes one. So character sets that differ in
    more than two characters cannot be one edit apart. What passes both,
    true matches, transpositions and close misses, goes to ``levenshtein``.
    """
    if token == tag:
        return True
    if (len(token) < FUZZY_MIN_LEN or abs(len(token) - len(tag)) > 1
            or len(set(token).symmetric_difference(tag)) > 2):
        return False
    return levenshtein(token, tag) <= 1


def _deletions(word: str) -> set[str]:
    """Every string made by deleting one character of ``word``."""
    return {word[:i] + word[i + 1:] for i in range(len(word))}


class _OddQueryFields(NamedTuple):
    tokens: tuple
    class_filter: RecordClass | None
    time_range: tuple | None  # (t0_ns, t1_ns) inclusive


class OddQuery(_OddQueryFields):
    """A named tuple; constructing one raises ``InvalidQuery`` for tokens
    that are not a tuple of str, a filter that is not a ``RecordClass``
    member, or a window that is not a tuple of two ints. The checks run in
    the constructor's one frame, with no generator, and the tuple is built
    directly. A store keys its query plans by ``tokens``, so a query with
    equal ``tokens``, whatever its filters, reuses the plan."""

    __slots__ = ()

    def __new__(cls, tokens: tuple, class_filter: RecordClass | None = None,
                time_range: tuple | None = None):
        if type(tokens) is not tuple or not set(map(type, tokens)) <= _STR_TYPE:
            raise InvalidQuery(f"tokens must be a tuple of str, not {tokens!r}")
        if class_filter is not None and type(class_filter) is not RecordClass:
            raise InvalidQuery(
                f"class_filter must be None or a RecordClass, not {class_filter!r}")
        if time_range is not None and (type(time_range) is not tuple or len(time_range) != 2
                                       or type(time_range[0]) is not int
                                       or type(time_range[1]) is not int):
            raise InvalidQuery(f"time_range must be a tuple of two ints, not {time_range!r}")
        return tuple.__new__(cls, (tokens, class_filter, time_range))

    def effective_tokens(self) -> list[str]:
        out = [normalize_token(w) for w in self.tokens]
        out = [w for w in out if w and w not in STOPWORDS]
        if not out:
            raise EmptyQuery(f"no searchable tokens in {list(self.tokens)!r}")
        return out


# frame kind -> (class, base tags, source) for ingestion; the tags are one
# shared frozenset per kind, so an ingest builds no tag set of its own
INGEST_TABLE = {
    DeviceKind.RADAR: (RecordClass.OBJECT, frozenset({"vehicle", "lead"}), Source.PERCEPTION),
    DeviceKind.CAMERA: (RecordClass.OBJECT, frozenset({"camera", "detection"}), Source.PERCEPTION),
    DeviceKind.LIDAR: (RecordClass.OBJECT, frozenset({"lidar", "obstacle"}), Source.PERCEPTION),
    DeviceKind.GPS: (RecordClass.LOCALIZATION, frozenset({"gps", "fix"}), Source.LOCALIZATION),
    DeviceKind.IMU: (RecordClass.LOCALIZATION, frozenset({"imu", "motion"}), Source.LOCALIZATION),
    DeviceKind.HDMAP: (RecordClass.ROAD_FEATURE, frozenset({"map", "lane"}), Source.FUSION),
    DeviceKind.V2X: (RecordClass.V2X_EVENT, frozenset({"v2x"}), Source.V2X),
}


# the bisect key: a C-level call, so a probe runs no Python code
_timestamp = attrgetter("timestamp_ns")


def _position(run: list, rec: EnvRecord) -> int:
    """Where ``rec`` stands, or would stand, in ``run``, a list ascending by
    ``(timestamp_ns, -record_id)``: a bisect on the timestamp, then a scan
    past the records that share it and have a higher id."""
    ts, rid = rec.timestamp_ns, rec.record_id
    i = bisect_left(run, ts, key=_timestamp)
    end = len(run)
    while i < end and run[i].timestamp_ns == ts and run[i].record_id > rid:
        i += 1
    return i


def _insert(run: list, rec: EnvRecord) -> None:
    """Put ``rec`` in its place in ``run``."""
    if not run or run[-1].timestamp_ns < rec.timestamp_ns:
        run.append(rec)  # a drive's ingests arrive in order
    else:
        run.insert(_position(run, rec), rec)


class _StandingOdd:
    """A saved ODD's matches, ascending by ``(timestamp_ns, -record_id)``.

    The store memoises the tag test (``takes_tags``) by tag set and offers
    a written record only to the saved ODDs whose tag test it passes;
    ``admits`` adds the class and time tests.
    """

    __slots__ = ("tokens", "class_filter", "time_range", "matches")

    def __init__(self, q: OddQuery):
        self.tokens = q.effective_tokens()
        self.class_filter = q.class_filter
        self.time_range = q.time_range
        self.matches: list[EnvRecord] = []

    def takes_tags(self, tags: frozenset) -> bool:
        return all(any(fuzzy_match(tok, tag) for tag in tags) for tok in self.tokens)

    def admits(self, rec: EnvRecord) -> bool:
        if self.class_filter is not None and rec.record_class is not self.class_filter:
            return False
        if self.time_range is None:
            return True
        t0, t1 = self.time_range
        return t0 <= rec.timestamp_ns <= t1


class EnvStore:
    """In-memory record store with an optional append-only JSONL log.

    The log is opened in append mode at the first write and stays open
    until ``close()``, which may be called more than once; a write after it
    opens the log again. ``with EnvStore.open(path) as store:`` closes it
    at exit. Every write's line reaches the OS before the write returns.
    """

    def __init__(self, log_path=None):
        self._records: dict[int, EnvRecord] = {}
        # tag -> its live records ascending by (timestamp_ns, -record_id); no empty list
        self._postings: dict[str, list[EnvRecord]] = {}
        # each one-deletion string of a live tag -> the live tags that give it
        self._near: dict[str, set[str]] = {}
        # a query's tokens -> each effective token's live tags; the live
        # vocabulary decides it, so entering or leaving a tag clears it
        self._plans: dict[tuple, tuple] = {}
        self._odds: dict[str, _StandingOdd] = {}
        # tags -> the saved ODDs whose every token matches one of them
        self._odds_by_tags: dict[frozenset, tuple] = {}
        self._next_id = 0
        self._log_path = log_path
        self._log_file = None  # opened by the first write

    # -- persistence ------------------------------------------------------------

    @classmethod
    def open(cls, path) -> "EnvStore":
        """Rebuild a store by replaying a JSONL record log.

        Each line is parsed by the one module decoder and becomes a record
        in ``EnvRecord.from_json_obj``, which keeps the parsed
        ``attributes`` dict. A table local to the replay holds every tag set
        that has passed the tag rules, so each distinct set is checked once
        and all records with equal tags share one frozenset. The next id is
        one past the highest id the log names, tombstones included, so a
        reopened store never re-issues a deleted id. The postings are built
        after the replay by one sort of the live records and one pass that
        appends each to its tags' lists, which costs less than keeping them
        current line by line. A last line with no newline was cut short
        mid-write: it is discarded and the file truncated to the end of the
        line before it. A bad line anywhere else raises:
        ``json.JSONDecodeError`` if it is not JSON,
        ``InvalidRecord`` naming its line number if it is JSON but not a
        record or tombstone (not an object, or a record ``from_json_obj``
        refuses).
        """
        store = cls()
        records = store._records
        tag_sets = {}  # each tag set that passed the tag rules -> its one frozenset
        dead_high = -1
        torn = ""
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.endswith("\n"):  # only the last line can lack one
                    torn = line
                    break
                line = line.strip()
                if not line:
                    continue
                obj = _decode_line(line)
                try:
                    if obj.get("deleted"):
                        rid = obj["record_id"]
                        _check_record_id(rid)
                        records.pop(rid, None)
                        dead_high = max(dead_high, rid)
                        continue
                    rec = EnvRecord.from_json_obj(obj, tag_sets)
                except (AttributeError, KeyError, InvalidRecord) as exc:  # not a dict, no id
                    why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                    raise InvalidRecord(f"line {lineno}: {why}") from exc
                records[rec.record_id] = rec
        if torn:
            os.truncate(path, os.path.getsize(path) - len(torn.encode("utf-8")))
        # two stable sorts on C-level keys: ascending by (timestamp_ns, -record_id)
        live = sorted(records.values(), key=attrgetter("record_id"), reverse=True)
        live.sort(key=_timestamp)
        postings = defaultdict(list)
        for rec in live:
            for tag in rec.tags:
                postings[tag].append(rec)
        store._postings = dict(postings)
        for tag in postings:
            store._index_tag(tag)
        # every id a log creates is either live at the end or has a tombstone
        store._next_id = max(dead_high, max(records, default=-1)) + 1
        store._log_path = path
        return store

    def dump_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rid in sorted(self._records):
                fh.write(_encode_line(self._records[rid].to_json_obj()) + "\n")

    def _log(self, entry) -> None:
        """Append a record, or a tombstone dict, to the log if there is one.

        The line goes to the OS in one write; append mode puts it at the
        file's end even after another store truncated a torn tail.
        """
        if self._log_path is None:
            return
        if self._log_file is None:
            self._log_file = open(self._log_path, "ab", buffering=0)
        obj = entry if isinstance(entry, dict) else entry.to_json_obj()
        line = (_encode_line(obj) + "\n").encode()
        while line:  # a file write falls short only when the disk fills
            line = line[self._log_file.write(line):]

    def close(self) -> None:
        """Release the log handle; a later write opens it again."""
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    def __enter__(self) -> "EnvStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- CRUD -------------------------------------------------------------------

    def _put(self, rec: EnvRecord) -> None:
        """Store or replace a record, post it under its tags and enter it in
        every saved ODD it matches. A replacement with the same timestamp
        takes its old place in the postings of every tag it keeps."""
        rid, tags, ts = rec.record_id, rec.tags, rec.timestamp_ns
        old = self._records.get(rid)
        self._records[rid] = rec
        if old is not None:
            if old.timestamp_ns == ts:
                tags = tags - old.tags  # a kept tag's posting was replaced in place
                self._unpost(old, rec)
            else:
                self._unpost(old)
        postings = self._postings
        for tag in tags:
            run = postings.get(tag)
            if run is None:  # the tag's first posting
                postings[tag] = [rec]
                self._index_tag(tag)
            elif run[-1].timestamp_ns < ts:
                run.append(rec)  # a drive's ingests arrive in order
            else:
                run.insert(_position(run, rec), rec)
        for odd in self._tag_odds(rec.tags):
            if odd.admits(rec):
                _insert(odd.matches, rec)

    def _unpost(self, rec: EnvRecord, successor: EnvRecord | None = None) -> None:
        """Take a record out of its tags' postings, where a tag left with
        no postings goes too, and out of the saved ODDs it matches. Under
        each tag that ``successor``, a replacement with the same timestamp,
        also carries, the successor takes the record's place instead."""
        postings = self._postings
        for tag in rec.tags:
            run = postings[tag]
            i = _position(run, rec)
            if successor is not None and tag in successor.tags:
                run[i] = successor
                continue
            del run[i]
            if not run:
                del postings[tag]
                self._unindex_tag(tag)
        for odd in self._tag_odds(rec.tags):
            if odd.admits(rec):
                del odd.matches[_position(odd.matches, rec)]

    def _index_tag(self, tag: str) -> None:
        """Enter a tag that has just gained its first posting in ``_near``;
        the query plans go, since they answer for the old vocabulary."""
        self._plans.clear()
        near = self._near
        for key in _deletions(tag):
            tags = near.get(key)
            if tags is None:
                near[key] = {tag}
            else:
                tags.add(tag)

    def _unindex_tag(self, tag: str) -> None:
        """Take a tag that has just lost its last posting out of ``_near``;
        a key left with no tags goes too, and so do the query plans."""
        self._plans.clear()
        near = self._near
        for key in _deletions(tag):
            tags = near[key]
            tags.discard(tag)
            if not tags:
                del near[key]

    def _tag_odds(self, tags: frozenset) -> tuple:
        """The saved ODDs whose tag test ``tags`` passes, memoised while
        there is a saved ODD; a miss on a full memo clears it first."""
        memo = self._odds_by_tags
        odds = memo.get(tags)
        if odds is None:
            if not self._odds:
                return ()
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            odds = memo[tags] = tuple(
                odd for odd in self._odds.values() if odd.takes_tags(tags))
        return odds

    def create(self, rec: EnvRecord) -> int:
        """Store ``rec`` as ``EnvRecord.from_json_obj`` reads its fields."""
        rec = EnvRecord.from_json_obj(dict(zip(_KEYS, rec)))
        if rec.record_id in self._records:
            raise DuplicateId(f"record {rec.record_id} exists")
        self._put(rec)
        self._next_id = max(self._next_id, rec.record_id + 1)
        self._log(rec)
        return rec.record_id

    def read(self, record_id: int) -> EnvRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise NotFound(f"no record {record_id}") from None

    def update(self, record_id: int, patch: dict) -> EnvRecord:
        """Store the record's fields with the patch's over them.

        The patch is keyed as a log line is, and ``EnvRecord.from_json_obj``
        reads the result, so a patched field obeys the replay's rules. The
        record keeps a patched ``attributes`` dict, not a copy. The class is
        identity-bearing: a patch may restate it, not change it, and it may
        name neither ``record_id`` nor an unknown key. A refused patch
        raises ``InvalidRecord`` and changes neither the store nor the log.
        """
        current = self.read(record_id)
        for key in patch:
            if key not in _KEYS[1:]:
                raise InvalidRecord("record_id cannot change" if key == "record_id"
                                    else f"unknown record field {key!r}")
        updated = EnvRecord.from_json_obj(dict(zip(_KEYS, current), **patch))
        if updated.record_class is not current.record_class:
            raise InvalidRecord("record class cannot change")
        self._put(updated)
        self._log(updated)
        return updated

    def delete(self, record_id: int) -> None:
        if record_id not in self._records:
            raise NotFound(f"no record {record_id}")
        self._unpost(self._records.pop(record_id))
        self._log({"record_id": record_id, "deleted": True})

    def all_records(self) -> list[EnvRecord]:
        return [self._records[rid] for rid in sorted(self._records)]

    # -- queries -----------------------------------------------------------------

    def query(self, q: OddQuery) -> list[EnvRecord]:
        """Records matching every token, newest first, ties by ascending id.

        The query's plan, each effective token's live tags, is one lookup
        in ``_plans`` by ``q.tokens``. A miss builds it with
        ``effective_tokens`` and ``_fuzzy_tags``, a lookup in ``_near`` and
        the postings that runs no edit distance and does not walk the
        vocabulary, and stores it until the vocabulary changes; a query
        with no searchable token raises ``EmptyQuery`` every time. The plan
        holds tag names, and the postings are read afresh. Two bisects find the time window (all of it when there
        is no ``time_range``) in each of those tags' postings. The token
        with the fewest postings in the window drives: its run, read
        backwards, is already in result order; when it matched several
        tags their runs are merged and a record they share is kept once.
        The class filter and each other token's tags, which must meet the
        record's, then thin that run. Nothing is sorted, and the work
        follows the driver's postings, not the store size.
        """
        plan = self._plans.get(q.tokens)
        if plan is None:
            plan = self._plan(q)
        postings, window = self._postings, q.time_range
        driver, others = None, []  # the driving token's runs; each other token's tags
        for tags in plan:
            if not tags:
                return []
            runs, size = [], 0
            for tag in tags:
                run = postings[tag]
                if window is None:
                    lo, hi = 0, len(run)
                else:
                    lo = bisect_left(run, window[0], key=_timestamp)
                    hi = bisect_right(run, window[1], lo, key=_timestamp)
                runs.append((run, lo, hi))
                size += hi - lo
            if driver is None or size < least:
                if driver is not None:
                    others.append(driver_tags)
                driver, least, driver_tags = runs, size, tags
            else:
                others.append(tags)
        if len(driver) == 1:
            run, lo, hi = driver[0]
            out = run[lo:hi]
            out.reverse()
        else:  # a record two of the runs hold comes out of the merge twice in a row
            out, last = [], None
            for rec in merge(*(reversed(run[lo:hi]) for run, lo, hi in driver), reverse=True,
                             key=lambda rec: (rec.timestamp_ns, -rec.record_id)):
                if rec is not last:
                    out.append(rec)
                    last = rec
        class_filter = q.class_filter
        if class_filter is not None:
            out = [rec for rec in out if rec.record_class is class_filter]
        for tags in others:
            out = [rec for rec in out if not tags.isdisjoint(rec.tags)]
        return out

    def _plan(self, q: OddQuery) -> tuple:
        """Each effective token's live tags, stored under ``q.tokens``; a
        query with no searchable token raises ``EmptyQuery`` and stores
        nothing, and a miss on a full memo clears it first."""
        plan = tuple(frozenset(self._fuzzy_tags(tok)) for tok in q.effective_tokens())
        plans = self._plans
        if len(plans) >= _MEMO_LIMIT:
            plans.clear()
        plans[q.tokens] = plan
        return plan

    def _fuzzy_tags(self, tok: str) -> set[str]:
        """The live tags ``tok`` fuzzy-matches, found without an edit distance.

        A token shorter than ``FUZZY_MIN_LEN`` matches only itself. A longer
        one matches the tags one character longer that ``_near`` files under
        it, each one-deletion string of it that is a tag, and the tags of its
        own length that share its deletion at ``i`` and agree with it
        everywhere but at ``i``: a substitution, or the token itself. Each
        case is exact, a transposition (two edits) is refused, and the work
        follows the token's length, not the vocabulary.
        """
        postings = self._postings
        if len(tok) < FUZZY_MIN_LEN:
            return {tok} if tok in postings else set()
        near = self._near
        tags = set(near.get(tok, ()))
        for i in range(len(tok)):
            head, tail = tok[:i], tok[i + 1:]
            shorter = head + tail
            if shorter in postings:
                tags.add(shorter)
            for tag in near.get(shorter, ()):
                if tag[:i] == head and tag[i + 1:] == tail:
                    tags.add(tag)
        return tags

    # -- saved ODDs ----------------------------------------------------------------

    def save_odd(self, name: str, q: OddQuery) -> None:
        """Save ``q`` as a standing result, seeded by one ``query``.

        From then on each write tests only the record it writes: one dict
        lookup finds the saved ODDs whose tag test its tag set passes (the
        test runs once per new tag set), and each of those checks the class
        and the time window and appends or ``bisect``s the record.
        """
        odd = _StandingOdd(q)  # rejects stopword-only definitions up front
        if name in self._odds:
            raise DuplicateOddName(f"odd {name!r} exists")
        odd.matches = self.query(q)[::-1]
        self._odds[name] = odd
        self._odds_by_tags.clear()

    def run_odd(self, name: str) -> list[EnvRecord]:
        """What ``query`` would return for the saved ODD, as a new list.

        It costs one reversed copy of the standing result: no fuzzy pass,
        no postings walk and no per-record Python work.
        """
        try:
            return self._odds[name].matches[::-1]
        except KeyError:
            raise OddNotFound(f"no odd {name!r}") from None

    # -- ingestion -----------------------------------------------------------------

    def ingest(self, frame) -> int:
        """Map an abstract frame or a service-output mapping to a record.

        ``EnvRecord.from_json_obj`` reads a mapping as a log line, with the
        store's next id as its ``record_id`` (one the mapping names is
        ignored), ``source`` ``"fusion"`` and ``timestamp_ns`` 0 unless it
        names them, and its tags joined by each key of its ``attributes``
        dict that holds ``True`` and is a tag word: ``{"rain": true}`` adds
        the tag ``rain``. The record keeps that ``attributes`` dict, not a
        copy. A refused mapping raises ``InvalidRecord`` and changes neither
        the store nor the log.
        """
        if isinstance(frame, AbstractFrame):
            # valid by construction: INGEST_TABLE tags, a store-issued id, (x, y)
            rec = self._record_from_frame(frame)
        elif isinstance(frame, dict):
            tags, attributes = frame.get("tags", ()), frame.get("attributes")
            if type(tags) in _TAG_TYPES and isinstance(attributes, dict):
                tags = [*tags, *(key for key, value in attributes.items()
                                 if value is True and isinstance(key, str) and _TAG_RE.match(key))]
            rec = EnvRecord.from_json_obj({"timestamp_ns": 0, "source": "fusion", **frame,
                                           "record_id": self._next_id, "tags": tags})
        else:
            raise InvalidRecord(f"cannot ingest {type(frame).__name__}")
        self._put(rec)
        self._next_id = rec.record_id + 1
        self._log(rec)
        return rec.record_id

    def _record_from_frame(self, frame: AbstractFrame) -> EnvRecord:
        """The record for ``frame``; it keeps ``frame.normalized`` as its
        ``attributes``, not a copy."""
        kind = frame.kind
        entry = INGEST_TABLE.get(kind)
        if entry is None:
            raise InvalidRecord(f"no ingestion rule for kind {kind!r}")
        record_class, tags, source = entry
        attributes = frame.normalized
        position = (attributes["range_m"], 0.0) if kind is _RADAR else None
        return EnvRecord(self._next_id, record_class, tags, frame.timestamp_ns,
                         attributes, position, source)
