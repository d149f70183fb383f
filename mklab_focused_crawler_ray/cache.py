"""The corpus cache: where a derived table lives, when it is stale, when it is done.

Every cached derived table (signature tables, pair lists, index and graph
layouts, format conversions) and every per-corpus memo in the query and
stage layers goes through this module, so the three rules are written
once:

- **where / stale** — :func:`key`. An entry is a path under :data:`ROOT`
  named by the entry's name plus a content fingerprint of the source
  files it was derived from (``abspath:size:mtime_ns`` per source,
  blake2b-8). A rewritten or regenerated source gets a new key, so a
  stale entry is never read; two corpora with the same directory name
  never share one.
- **done** — :func:`materialize`. ``write(tmp)`` builds the file or
  directory at ``path + ".tmp"`` and one ``os.replace`` publishes it, so
  ``path`` existing means complete. A writer that dies halfway leaves
  only the ``.tmp``, which the next call clears before it rebuilds.
- **in process** — :func:`memo`. One dict, holding at most one value
  (one corpus) per name; ``pipelines.queries.clear_query_memos`` empties
  it so a timed repeat pays its own work.

Nothing here starts a process, a thread or a Ray task; the writers do.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Any, Callable, Hashable

ROOT = "/tmp/mkfc_cache"

# name → (token, value): the one in-process per-corpus memo
MEMO: dict[str, tuple[Hashable, Any]] = {}


def key(name: str, *sources: str) -> str:
    """Cache path for ``name`` derived from ``sources``: ``ROOT/<stem>-<fp><ext>``
    where ``fp`` fingerprints every source's abs path, size and mtime."""
    h = hashlib.blake2b(digest_size=8)
    for s in sources:
        st = os.stat(s)
        h.update(f"{os.path.abspath(s)}:{st.st_size}:{st.st_mtime_ns}\n".encode())
    stem, ext = os.path.splitext(name)
    return os.path.join(ROOT, f"{stem}-{h.hexdigest()}{ext}")


def materialize(path: str, write: Callable[[str], Any]) -> str:
    """Return ``path``, first building it with ``write(path + ".tmp")`` and
    publishing with ``os.replace`` if it does not exist yet."""
    if os.path.exists(path):
        return path
    tmp = path + ".tmp"
    if os.path.isdir(tmp):  # a crashed writer's leftover
        shutil.rmtree(tmp)
    elif os.path.lexists(tmp):
        os.remove(tmp)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write(tmp)
    os.replace(tmp, path)
    return path


def memo(name: str, token: Hashable, build: Callable[[], Any]) -> Any:
    """``build()`` once per ``(name, token)`` — ``token`` is normally the
    entry's :func:`key` — and a new token for ``name`` evicts the old
    value, so each name holds at most one corpus."""
    hit = MEMO.get(name)
    if hit is None or hit[0] != token:
        hit = MEMO[name] = (token, build())
    return hit[1]
