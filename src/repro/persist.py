"""The one file layer under every on-disk format.

Every file this package writes goes through :func:`write_file`, every
versioned file it reads back through :meth:`FileFormat.load`; the
formats and what a reader does on each failure are tabulated in
``docs/robustness.md`` ("On-disk formats").  *Durable* formats are
JSON, fsynced, load older versions and refuse newer ones with the
caller's typed errors; *regenerable* ones (caches) are ``marshal``,
interpreter-tagged, not fsynced, and every failure is a :class:`Miss`.
"""

from __future__ import annotations

import json
import marshal
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

#: Marshal payloads are interpreter-specific; cache envelopes carry this.
PYTHON_TAG = f"{sys.version_info[0]}.{sys.version_info[1]}"


class Miss(Exception):
    """A regenerable file could not be used; the caller recomputes."""


def write_file(path: str | Path, data: str | bytes, *,
               durable: bool = False) -> Path:
    """Atomically replace ``path`` with ``data`` (text is UTF-8): a
    crash at any point leaves the previous file or the new one, never
    a torn write, and a failed write leaves no tmp file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_lines(path: str | Path, lines: Iterable[str]) -> Path:
    """Atomically write a line export: each line newline-terminated."""
    return write_file(path, "".join(f"{line}\n" for line in lines))


def read_jsonl(path: str | Path) -> Iterator[Any]:
    """Stream the decoded non-blank lines of a JSON-lines file."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


@dataclass(frozen=True)
class FileFormat:
    """One versioned format: its envelope and its failure map.

    ``kind=None`` means the envelope must carry no ``kind`` field;
    ``sections`` are the payload keys a reader may rely on.  Every
    failed read raises ``error``; ``not_found`` / ``too_new`` refine it
    for a missing file (``hint`` says how to create one) and for a
    file written by a newer build.
    """

    what: str
    version: int
    kind: str | None = None
    sections: tuple[str, ...] = ()
    durable: bool = True
    sort_keys: bool = False
    error: type[Exception] = Miss
    not_found: type[Exception] | None = None
    too_new: type[Exception] | None = None
    hint: str = ""

    def save(self, path: str | Path, body: dict) -> Path:
        """Wrap ``body`` in this format's envelope and write it."""
        payload: dict = {"version": self.version}
        if self.kind is not None:
            payload["kind"] = self.kind
        if not self.durable:
            payload["python"] = PYTHON_TAG
        payload.update(body)
        data = (json.dumps(payload, sort_keys=self.sort_keys)
                if self.durable else marshal.dumps(payload))
        return write_file(path, data, durable=self.durable)

    def load(self, path: str | Path, **identity: Any) -> dict:
        """The checked payload of ``path``; ``identity`` fields (a
        cache's content key) must be in the envelope with these values."""
        what, error = self.what, self.error
        codec = json if self.durable else marshal
        encoding = codec.__name__.upper()
        try:
            data = Path(path).read_bytes()
        except FileNotFoundError as exc:
            raise (self.not_found or error)(
                f"cannot read {what} {path}: {exc.strerror}"
                f"{self.hint}") from exc
        except OSError as exc:
            raise error(f"cannot read {what} {path}: {exc}") from exc
        try:
            payload = codec.loads(data)
        except (ValueError, EOFError, TypeError) as exc:
            # ValueError covers JSONDecodeError and UnicodeDecodeError.
            raise error(f"{what} {path} is corrupt (truncated or not "
                        f"{encoding}): {exc}") from exc
        if not isinstance(payload, dict):
            raise error(f"{what} {path} is not a {encoding} object")
        version = payload.get("version")
        oldest = 1 if self.durable else self.version
        if not isinstance(version, int) or version < oldest:
            raise error(f"unsupported {what} version: {version!r}")
        if version > self.version:
            raise (self.too_new or error)(
                f"{what} {path} has format version {version}, but this "
                f"build supports at most version {self.version}; "
                f"refusing to load a {what} from a newer build "
                "(downgrade detected)")
        if not self.durable:
            identity["python"] = PYTHON_TAG
        for field, expected in {"kind": self.kind, **identity}.items():
            if payload.get(field) != expected:
                raise error(f"{path} is not the expected {what} "
                            f"({field}={payload.get(field)!r})")
        for section in self.sections:
            if section not in payload:
                raise error(f"{what} {path} is missing its "
                            f"{section!r} section")
        return payload
