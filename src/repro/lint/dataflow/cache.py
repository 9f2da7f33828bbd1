"""sha256-keyed on-disk cache of extracted modules.

Parsing and symbol extraction dominate a ``--project`` run on a warm
tree, so :class:`ModuleCache` persists each file's pickled
:class:`~repro.lint.dataflow.symbols.ModuleInfo` keyed by the sha256 of
its *content* (plus the analyzer schema version).  A repeated run on an
unchanged tree becomes a read-and-unpickle loop; any edit changes the
key, so stale entries are simply never read again.

The cache is purely an accelerator: every miss, corruption, or I/O error
falls back to a fresh parse, and findings are byte-identical with the
cache on, off, cold, or warm.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path

from .symbols import ModuleInfo

#: Bump when ModuleInfo's shape (or any extraction detail) changes, so
#: caches written by older analyzers are ignored rather than misread.
CACHE_SCHEMA_VERSION = 2

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-lint-cache"


def source_sha256(source: str) -> str:
    """Content key for a module's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class ModuleCache:
    """Pickle store of extracted modules under ``directory``.

    A ``None`` directory disables the cache (every lookup misses and
    stores are dropped), which keeps call sites branch-free.
    """

    def __init__(self, directory: str | Path | None):
        self._dir = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self._dir is not None

    def _entry_path(self, sha256: str, display_path: str) -> Path:
        assert self._dir is not None
        # Identical content at two paths (empty __init__.py files) must not
        # share an entry — ModuleInfo embeds the path and module name — so
        # the filename carries a digest of the path alongside the content key.
        tag = hashlib.sha256(display_path.encode("utf-8")).hexdigest()[:12]
        return self._dir / f"{sha256[:48]}-{tag}.v{CACHE_SCHEMA_VERSION}.pkl"

    def get(self, sha256: str, display_path: str) -> ModuleInfo | None:
        """Cached module for ``(sha256, path)``, or ``None`` on miss/error."""
        if self._dir is None:
            return None
        try:
            payload = self._entry_path(sha256, display_path).read_bytes()
            info = pickle.loads(payload)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            return None
        if (
            not isinstance(info, ModuleInfo)
            or info.sha256 != sha256
            or info.path != display_path
        ):
            self.misses += 1
            return None
        self.hits += 1
        return info

    def put(self, info: ModuleInfo) -> None:
        """Persist ``info``; failures are silent (the cache is optional)."""
        if self._dir is None:
            return
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            target = self._entry_path(info.sha256, info.path)
            # Write-then-rename so concurrent runs never read a torn pickle.
            # The pid only uniquifies the temp name; no behaviour depends
            # on its value.
            temporary = target.with_suffix(f".tmp.{os.getpid()}")  # repro-lint: disable=RL008
            temporary.write_bytes(pickle.dumps(info, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(temporary, target)
        except OSError:
            pass
