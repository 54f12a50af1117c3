"""One fault matrix at the file seam, over all four on-disk formats.

Every versioned file goes through :mod:`repro.persist`, so the crash,
corruption, and version behaviour is checked once, per format, here:
a failed write leaves the previous file, and a damaged file is the
format's typed error (checkpoints, the store) or a miss (the
automaton cache) — never any other exception.
"""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from repro import persist
from repro.annotations import Document
from repro.crawler.checkpoint import (
    CheckpointError, load_checkpoint, load_sharded_checkpoint,
    result_to_dict, frontier_to_dict, save_checkpoint,
    save_sharded_checkpoint,
)
from repro.crawler.crawl import CrawlResult
from repro.crawler.frontier import CrawlDb
from repro.ner.automaton import WordTrie
from repro.ner.cache import AutomatonCache, content_key
from repro.store import (
    EntityStore, StoreError, StoreNotFoundError, StoreVersionError,
)

GOLDEN = Path(__file__).parent / "data" / "persist"

AUTOMATON_KEY = content_key(["fixed key"])


def _frontier() -> CrawlDb:
    frontier = CrawlDb()
    frontier.add_seeds(["http://a.example/", "http://b.example/x"])
    return frontier


def _result(variant: int) -> CrawlResult:
    result = CrawlResult(pages_fetched=3 + variant, clock_seconds=4.5,
                         failure_reasons={"timeout": 1})
    result.relevant.append(Document(
        doc_id="http://a.example/", text="Aspirin reduced migraine.",
        raw="<p>Aspirin reduced migraine.</p>",
        meta={"url": "http://a.example/"}))
    result.linkdb.add_edges("http://a.example/", ["http://b.example/x"])
    return result


def _write_checkpoint(directory: Path, variant: int) -> Path:
    return save_checkpoint(
        directory / "cp.json", _frontier(), _result(variant),
        clock_now=12.5, crawler_state={"host_ready": {"a.example": 3.0}})


def _read_checkpoint(directory: Path):
    return load_checkpoint(directory / "cp.json").result.pages_fetched


def _write_sharded(directory: Path, variant: int) -> Path:
    section = {"frontier": frontier_to_dict(_frontier()),
               "result": result_to_dict(_result(0)),
               "crawler": {"host_clocks": {"a.example": 2.0}}}
    return save_sharded_checkpoint(
        directory / "sharded.json", n_shards=2, superstep=3 + variant,
        inbound={0: [("a.example", 0, "http://b.example/y", 1, 0)],
                 1: []},
        shards=[section, section], round_=1)


def _read_sharded(directory: Path):
    return load_sharded_checkpoint(directory / "sharded.json")["superstep"]


def _write_store(directory: Path, variant: int) -> Path:
    store = EntityStore()
    for index in range(1 + variant):
        store.ingest_entity_record({
            "doc_id": f"doc-{index}", "url": "http://a.example/",
            "entity_type": "drug", "text": "Aspirin", "start": 0,
            "end": 7, "method": "dictionary", "term_id": "D001"})
    store.ingest_relation_record({
        "doc_id": "doc-0", "sentence": 0, "subject_type": "drug",
        "subject": "Aspirin", "subject_start": 0, "subject_end": 7,
        "object_type": "disease", "object": "migraine",
        "object_start": 16, "object_end": 24, "verb": "reduced",
        "confidence": 0.75})
    return store.save(directory)


def _read_store(directory: Path):
    # Not snapshot(): the format carries no checksum, so a changed
    # byte inside a string loads cleanly as different observations.
    return len(EntityStore.load(directory).to_dict()["mentions"])


def _write_automaton(directory: Path, variant: int) -> Path:
    trie = WordTrie.build(["brca1", "tp53", "tnf"][:2 + variant])
    return AutomatonCache(directory).store(AUTOMATON_KEY, trie)


def _read_automaton(directory: Path):
    trie = AutomatonCache(directory).load(AUTOMATON_KEY)
    return None if trie is None else len(trie)


@dataclass(frozen=True)
class Format:
    name: str
    #: (directory, variant) -> the file written; variants 0 and 1
    #: differ in what ``read`` returns.
    write: Callable[[Path, int], Path]
    #: directory -> a value identifying the variant; None is a miss.
    read: Callable[[Path], object]
    #: Variant 0's and variant 1's ``read`` values.
    values: tuple
    #: The typed error of a durable format; None for a cache (a miss).
    error: type[Exception] | None = None
    not_found: type[Exception] | None = None
    too_new: type[Exception] | None = None

    @property
    def durable(self) -> bool:
        return self.error is not None

    def decode(self, data: bytes):
        return json.loads(data) if self.durable else marshal.loads(data)

    def encode(self, payload) -> bytes:
        return (json.dumps(payload).encode() if self.durable
                else marshal.dumps(payload))

    def read_damaged(self, directory: Path):
        """``read`` of a file that may not load: the typed error for a
        durable format, a miss for a cache; anything else propagates
        and fails the test."""
        if not self.durable:
            return self.read(directory)
        try:
            return self.read(directory)
        except self.error:
            return None


FORMATS = [
    Format("checkpoint", _write_checkpoint, _read_checkpoint, (3, 4),
           CheckpointError, CheckpointError, CheckpointError),
    Format("sharded", _write_sharded, _read_sharded, (3, 4),
           CheckpointError, CheckpointError, CheckpointError),
    Format("store", _write_store, _read_store, (1, 2),
           StoreError, StoreNotFoundError, StoreVersionError),
    Format("automaton_cache", _write_automaton, _read_automaton, (2, 3)),
]
every_format = pytest.mark.parametrize(
    "fmt", FORMATS, ids=[fmt.name for fmt in FORMATS])


def _residue(directory: Path) -> list[str]:
    return [path.name for path in directory.iterdir()
            if ".tmp" in path.name]


@every_format
def test_round_trip_leaves_no_residue(fmt, tmp_path):
    fmt.write(tmp_path, 0)
    assert fmt.read(tmp_path) == fmt.values[0]
    fmt.write(tmp_path, 1)
    assert fmt.read(tmp_path) == fmt.values[1]
    assert _residue(tmp_path) == []


@every_format
def test_crash_before_replace_keeps_the_previous_file(fmt, tmp_path,
                                                      monkeypatch):
    """(a) A writer dying between the tmp write and ``os.replace``
    leaves the previous file loadable, no torn target, no tmp."""
    target = fmt.write(tmp_path, 0)
    before = target.read_bytes()

    def die(_source, _target):
        raise OSError("injected: died before replace")

    with monkeypatch.context() as patch:
        patch.setattr(persist.os, "replace", die)
        with pytest.raises(OSError, match="injected"):
            fmt.write(tmp_path, 1)
    assert target.read_bytes() == before
    assert fmt.read(tmp_path) == fmt.values[0]
    assert _residue(tmp_path) == []


@every_format
def test_only_durable_formats_fsync(fmt, tmp_path, monkeypatch):
    """Checkpoints and the store fsync every save; a lost cache entry
    is a miss by design, and serve autosaves shards in its hot path."""
    synced = []
    real = persist.os.fsync
    monkeypatch.setattr(persist.os, "fsync",
                        lambda fd: (synced.append(fd), real(fd)))
    fmt.write(tmp_path, 0)
    assert len(synced) == (1 if fmt.durable else 0)


@every_format
def test_truncations_and_flipped_bytes(fmt, tmp_path):
    """(b) Every strict prefix of a valid file is the typed error / a
    miss; one changed byte is that or a clean load of altered data."""
    target = fmt.write(tmp_path, 0)
    valid = target.read_bytes()

    for cut in range(len(valid)):
        target.write_bytes(valid[:cut])
        assert fmt.read_damaged(tmp_path) is None, cut

    # Any replacement byte for JSON.  For marshal only the inverted
    # byte: it cannot turn a type code into a sized container, whose
    # corrupt length marshal would allocate before noticing.
    replacement = (st.integers(0, 255) if fmt.durable
                   else st.just(None))

    @settings(max_examples=300, deadline=None)
    @given(position=st.integers(0, len(valid) - 1), byte=replacement)
    def flipped(position, byte):
        damaged = bytearray(valid)
        damaged[position] = (damaged[position] ^ 0xFF if byte is None
                             else byte)
        target.write_bytes(bytes(damaged))
        fmt.read_damaged(tmp_path)

    flipped()


@every_format
def test_newer_version_is_refused(fmt, tmp_path):
    """(c) ``version + 1``: the version error (refuse to downgrade)
    for a durable format, a miss for a cache."""
    target = fmt.write(tmp_path, 0)
    payload = fmt.decode(target.read_bytes())
    payload["version"] += 1
    target.write_bytes(fmt.encode(payload))
    if fmt.durable:
        with pytest.raises(fmt.too_new, match="downgrade"):
            fmt.read(tmp_path)
    else:
        assert fmt.read(tmp_path) is None


@every_format
def test_missing_file(fmt, tmp_path):
    target = fmt.write(tmp_path, 0)
    target.unlink()
    if fmt.durable:
        with pytest.raises(fmt.not_found, match="cannot read"):
            fmt.read(tmp_path)
    else:
        assert fmt.read(tmp_path) is None


def _wrong_kind(payload: dict) -> dict:
    return {**payload, "kind": "banana"}


def _wrong_typed_section(payload: dict) -> dict:
    section = next(name for name in ("frontier", "shards", "mentions",
                                     "entries", "state")
                   if name in payload)
    return {**payload, section: 5}


@every_format
@pytest.mark.parametrize("damage", [
    lambda payload: [], lambda payload: None, lambda payload: {},
    lambda payload: {**payload, "version": "banana"},
    lambda payload: {**payload, "version": 0},
    _wrong_kind, _wrong_typed_section,
], ids=["list", "null", "empty-object", "nonsense-version",
        "version-zero", "wrong-kind", "wrong-typed-section"])
def test_wrong_shapes_are_typed(fmt, damage, tmp_path):
    """(d) and the rows that used to leak ``AttributeError`` /
    ``TypeError``: a well-formed file of the wrong shape."""
    target = fmt.write(tmp_path, 0)
    target.write_bytes(
        fmt.encode(damage(fmt.decode(target.read_bytes()))))
    if fmt.durable:
        with pytest.raises(fmt.error):
            fmt.read(tmp_path)
    else:
        assert fmt.read(tmp_path) is None


@pytest.mark.parametrize("link", [
    ["drug", "ibuprofen", "D009"], ["disease", "aspirin", "D001"]],
    ids=["unobserved-surface", "surface-of-another-type"])
def test_store_link_without_an_observed_surface_is_typed(link, tmp_path):
    """A link whose (type, alias) no mention or assertion carries is
    refused at load, not left to crash ``snapshot()``."""
    target = _write_store(tmp_path, 0)
    payload = json.loads(target.read_bytes())
    payload["links"].append(link)
    target.write_text(json.dumps(payload))
    with pytest.raises(StoreError, match="names no observed surface"):
        EntityStore.load(tmp_path)


@pytest.mark.parametrize("name, field", [
    ("automaton_cache", "python"), ("automaton_cache", "key")])
def test_cache_entry_of_another_identity_is_a_miss(name, field, tmp_path):
    """Marshal is interpreter-specific and entries are content-keyed:
    another Python's file, or another key's, must not be served."""
    fmt = next(fmt for fmt in FORMATS if fmt.name == name)
    target = fmt.write(tmp_path, 0)
    payload = fmt.decode(target.read_bytes())
    assert field in payload
    target.write_bytes(fmt.encode({**payload, field: "other"}))
    assert fmt.read(tmp_path) is None


@pytest.mark.parametrize("version", [2, 3])
def test_character_automaton_entry_is_a_miss_and_rebuilds(version, tmp_path):
    """A cache directory written before the word-unit trie holds
    version-2 entries of the character automaton's state (a flat edge
    dict and fail links).  The content key hashes the format version,
    so such a file is normally never opened; found under the current
    key anyway, with its old version number or relabelled as the
    current one, it is a miss that rebuilds and replaces the file,
    never an error."""
    patterns = ["brca1", "tp53"]
    cache = AutomatonCache(tmp_path)
    key = content_key(patterns)
    persist.write_file(cache.path_for(key), marshal.dumps({
        "version": version, "python": persist.PYTHON_TAG, "key": key,
        "state": {"edges": {ord("b"): 1}, "fail": [0, 0],
                  "outputs": [(), ()], "patterns": patterns}}))
    assert cache.load(key) is None
    trie, hit = cache.get_or_build(patterns)
    assert not hit and len(trie) == 2
    _, hit = AutomatonCache(tmp_path).get_or_build(patterns)
    assert hit


@every_format
def test_invalid_utf8_is_typed(fmt, tmp_path):
    target = fmt.write(tmp_path, 0)
    target.write_bytes(b"\xff\xfe" + target.read_bytes())
    if fmt.durable:
        with pytest.raises(fmt.error, match="corrupt"):
            fmt.read(tmp_path)
    else:
        assert fmt.read(tmp_path) is None


@pytest.mark.parametrize(
    "fmt", [fmt for fmt in FORMATS if fmt.durable],
    ids=[fmt.name for fmt in FORMATS if fmt.durable])
def test_bytes_equal_the_previous_writers(fmt, tmp_path):
    """(e) The golden files were written by the hand-rolled writers
    this module replaced: same payload, same bytes, and they load."""
    target = fmt.write(tmp_path, 0)
    golden = GOLDEN / target.name
    assert target.read_bytes() == golden.read_bytes()
    target.write_bytes(golden.read_bytes())
    assert fmt.read(tmp_path) == fmt.values[0]


def test_write_file_removes_its_tmp_when_the_write_fails(tmp_path):
    with pytest.raises(TypeError):
        persist.write_file(tmp_path / "out.txt", 5)  # not str/bytes
    assert list(tmp_path.iterdir()) == []


def test_line_exports_are_newline_terminated(tmp_path):
    path = persist.write_lines(tmp_path / "sub" / "out.jsonl",
                               ['{"a": 1}', '{"b": "é"}'])
    assert path.read_bytes() == '{"a": 1}\n{"b": "é"}\n'.encode()
    assert list(persist.read_jsonl(path)) == [{"a": 1}, {"b": "é"}]
    assert persist.write_lines(path, []).read_bytes() == b""
