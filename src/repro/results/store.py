"""SQLite-backed experiment store: runs, metrics and report artifacts.

One :class:`ResultsStore` holds every recorded experiment run — fig and
table reports, bench runs, CI gate payloads — in three tables:

``runs``
    one row per recorded run: name, kind (``report`` / ``bench``), UTC
    timestamp, git SHA, config JSON and host-info JSON;
``metrics``
    the run's scalar metrics, optionally *gated*: a gate records the
    regression direction (``higher`` / ``lower`` / ``equal`` is better)
    and a relative tolerance the CI history-diff enforces against a
    baseline snapshot;
``artifacts``
    structured payloads: the report's block document (so the exact text
    can be regenerated byte-for-byte), raw gate JSON, plain text.

The *active store* is the process-wide persistence seam: report
functions call :func:`record_experiment` on their results, which
no-ops unless a store has been activated via :func:`set_active_store`
or the ``REPRO_RESULTS_DB`` environment variable — unit tests stay
hermetic, while the CLI and the bench harness persist everything.
"""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.report import ReportDocument

__all__ = [
    "GATE_DIRECTIONS",
    "SCHEMA_VERSION",
    "ResultsStore",
    "active_store",
    "default_db_path",
    "record_experiment",
    "results_dir",
    "set_active_store",
]

SCHEMA_VERSION = 1

#: Allowed gate directions: which way a gated metric may safely move.
GATE_DIRECTIONS = ("higher", "lower", "equal")

RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"
RESULTS_DB_ENV = "REPRO_RESULTS_DB"

_SCHEMA = """
CREATE TABLE runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    name TEXT NOT NULL,
    kind TEXT NOT NULL,
    created_at TEXT NOT NULL,
    git_sha TEXT,
    config TEXT NOT NULL DEFAULT '{}',
    host TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX idx_runs_name ON runs (name, created_at, id);
CREATE TABLE metrics (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    name TEXT NOT NULL,
    value REAL NOT NULL,
    direction TEXT,
    rel_tol REAL,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE artifacts (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    name TEXT NOT NULL,
    kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_id, name)
);
"""


def _repo_root() -> Path:
    # src/repro/results/store.py -> src/repro/results -> src/repro -> src -> root
    return Path(__file__).resolve().parents[3]


def results_dir() -> Path:
    """The results directory every bench and report writes into.

    ``REPRO_RESULTS_DIR`` overrides the default ``benchmarks/results``
    next to the source tree — the single resolver replacing the old
    per-script path literals.
    """
    override = os.environ.get(RESULTS_DIR_ENV)
    if override:
        return Path(override)
    return _repo_root() / "benchmarks" / "results"


def default_db_path() -> Path:
    """The default store location (``REPRO_RESULTS_DB`` overrides)."""
    override = os.environ.get(RESULTS_DB_ENV)
    if override:
        return Path(override)
    return results_dir() / "results.db"


def _git_sha() -> str | None:
    for key in ("REPRO_GIT_SHA", "GITHUB_SHA"):
        value = os.environ.get(key)
        if value:
            return value
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_repo_root(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _host_info() -> dict:
    # absolute throughput only means something next to the cores the
    # run could use and the BLAS threading it ran under
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cores = os.cpu_count() or 1
    return {
        "node": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": cores,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
    }


def _as_metric(name: str, value: object) -> float:
    if isinstance(value, (bool, np.bool_)):
        return float(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    raise TypeError(f"metric {name!r} is not numeric: {value!r}")


def scalar_metrics(payload: Mapping[str, object]) -> dict[str, float]:
    """Extract the numeric top-level scalars of a JSON-style payload.

    Used by the bench harness to mirror a gate payload's headline
    numbers into the metrics table without hand-copying each one.
    """
    out = {}
    for name, value in payload.items():
        if isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating)):
            out[name] = _as_metric(name, value)
    return out


def _jsonify(value: object) -> object:
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


class ResultsStore:
    """One SQLite experiment database (file path or ``":memory:"``)."""

    def __init__(self, path: str | Path | None = None) -> None:
        if path is None:
            path = default_db_path()
        self.path = path if str(path) == ":memory:" else Path(path)
        if isinstance(self.path, Path):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        self._migrate()

    # -- schema --------------------------------------------------------

    def _migrate(self) -> None:
        """Create or upgrade the schema (an empty database migrates up)."""
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise RuntimeError(
                f"results DB {self.path} has schema version {version}, "
                f"newer than this library's {SCHEMA_VERSION}"
            )
        if version == 0:
            tables = {
                row[0]
                for row in self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            if "runs" in tables:
                raise RuntimeError(
                    f"results DB {self.path} has tables but no schema version"
                )
            with self._conn:
                self._conn.executescript(_SCHEMA)
                self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        # version == SCHEMA_VERSION: nothing to do.  Future migrations
        # step version-by-version here.

    @property
    def schema_version(self) -> int:
        return self._conn.execute("PRAGMA user_version").fetchone()[0]

    # -- recording -----------------------------------------------------

    def record_run(
        self,
        name: str,
        kind: str,
        *,
        config: Mapping[str, object] | None = None,
        metrics: Mapping[str, object] | None = None,
        gates: Mapping[str, tuple[str, float]] | None = None,
        document: ReportDocument | None = None,
        artifacts: Mapping[str, object] | None = None,
        created_at: str | None = None,
        git_sha: str | None = None,
    ) -> int:
        """Insert one run row with its metrics and artifacts.

        ``gates`` maps a metric name to ``(direction, rel_tol)``; every
        gated metric must also appear in ``metrics``.  ``document`` is
        stored as the ``report`` artifact so the rendered text can be
        regenerated from the database alone.
        """
        metrics = dict(metrics or {})
        gates = dict(gates or {})
        unknown = sorted(set(gates) - set(metrics))
        if unknown:
            raise ValueError(f"gated metrics missing from metrics: {unknown}")
        for metric, (direction, _) in gates.items():
            if direction not in GATE_DIRECTIONS:
                raise ValueError(
                    f"gate {metric!r}: direction must be one of "
                    f"{GATE_DIRECTIONS}, got {direction!r}"
                )
        if created_at is None:
            created_at = datetime.now(timezone.utc).isoformat(
                timespec="microseconds"
            )
        if git_sha is None:
            git_sha = _git_sha()
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO runs (name, kind, created_at, git_sha, config, host)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    name,
                    kind,
                    created_at,
                    git_sha,
                    json.dumps(_jsonify(config or {})),
                    json.dumps(_host_info()),
                ),
            )
            run_id = cursor.lastrowid
            for metric, value in metrics.items():
                direction, rel_tol = gates.get(metric, (None, None))
                self._conn.execute(
                    "INSERT INTO metrics (run_id, name, value, direction, rel_tol)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (run_id, metric, _as_metric(metric, value), direction, rel_tol),
                )
            if document is not None:
                self._insert_artifact(run_id, "report", document)
            for artifact_name, payload in (artifacts or {}).items():
                self._insert_artifact(run_id, artifact_name, payload)
        return run_id

    def _insert_artifact(self, run_id: int, name: str, payload: object) -> None:
        if isinstance(payload, ReportDocument):
            kind, text = "document", json.dumps(payload.to_payload())
        elif isinstance(payload, str):
            kind, text = "text", payload
        else:
            kind, text = "json", json.dumps(_jsonify(payload))
        self._conn.execute(
            "INSERT INTO artifacts (run_id, name, kind, payload)"
            " VALUES (?, ?, ?, ?)",
            (run_id, name, kind, text),
        )

    # -- plumbing ------------------------------------------------------

    @property
    def connection(self) -> sqlite3.Connection:
        return self._conn

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- the process-wide active store -------------------------------------

class _Unset:
    pass


_UNSET = _Unset()
_active: ResultsStore | None | _Unset = _UNSET


def set_active_store(store: ResultsStore | str | Path | None) -> ResultsStore | None:
    """Install (or clear, with ``None``) the process-wide active store."""
    global _active
    if store is not None and not isinstance(store, ResultsStore):
        store = ResultsStore(store)
    _active = store
    return store


def active_store() -> ResultsStore | None:
    """The store experiment results auto-persist into, if any.

    Explicit :func:`set_active_store` wins; otherwise a store is opened
    lazily at ``$REPRO_RESULTS_DB`` when that variable is set.  With
    neither, persistence is off and recording helpers no-op.
    """
    global _active
    if isinstance(_active, _Unset):
        if os.environ.get(RESULTS_DB_ENV):
            _active = ResultsStore(default_db_path())
        else:
            return None
    return _active


def record_experiment(result, *, kind: str = "report", store=None) -> int | None:
    """Persist an :class:`~repro.experiments.ExperimentResult`.

    Called by every ``*_report`` function on its return value; a no-op
    (returning ``None``) when no store is active, so importing and
    running reports stays side-effect free by default.
    """
    store = store or active_store()
    if store is None:
        return None
    return store.record_run(
        result.name,
        kind,
        config=getattr(result, "config", None),
        metrics=result.metrics,
        gates=getattr(result, "gates", None),
        document=getattr(result, "document", None),
    )
