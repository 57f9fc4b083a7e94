"""The sqlite discipline shared by the stack's flat results databases.

:class:`~repro.matrix.db.MatrixDB` and :class:`~repro.perf.db.PerfDB`
both live next to the artifact store (under ``$REPRO_CACHE_DIR`` or
``.repro-cache/``) and open the same way: an autocommit connection —
every statement durable on its own, which is what makes a killed sweep
resumable from its last row — yielding :class:`sqlite3.Row` rows, a
``meta.schema_version`` stamp written on first open and checked on
every later one, then the subclass's DDL.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import Optional


def cache_path(basename: str) -> Path:
    """``basename`` under the artifact-store root."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache")) / basename


class VersionedDB:
    """One version-stamped sqlite database; use as a context manager or
    ``close()``.  Subclasses name their ``KIND`` (for messages), default
    file ``BASENAME``, schema ``VERSION``, ``DDL`` statements, and the
    ``ERROR`` class raised for a foreign or mismatched file."""

    KIND: str
    BASENAME: str
    VERSION: int
    DDL: tuple[str, ...]
    ERROR: type[Exception]

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = Path(path) if path is not None else cache_path(self.BASENAME)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        self._conn.row_factory = sqlite3.Row
        try:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
        except sqlite3.DatabaseError as e:
            raise self.ERROR(
                f"{self.path} is not a {self.KIND} database: {e}"
            ) from e
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(self.VERSION),),
            )
        elif int(row["value"]) != self.VERSION:
            raise self.ERROR(
                f"{self.path} has schema v{row['value']}, want v{self.VERSION}; "
                "delete the file to start over"
            )
        for statement in self.DDL:
            self._conn.execute(statement)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
