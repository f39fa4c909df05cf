"""End-to-end tests of ``python -m repro.results`` and report round-trips."""

import shutil

import pytest

from repro.experiments import REGISTRY
from repro.results.cli import main
from repro.results.store import ResultsStore, set_active_store


@pytest.fixture(scope="session")
def populated_template(tmp_path_factory):
    """Build one store holding a run of every report, plus the rendered
    files, once per session (every report takes seconds to build)."""
    root = tmp_path_factory.mktemp("populated")
    out = root / "out"
    out.mkdir()
    store = ResultsStore(root / "results.db")
    set_active_store(store)
    try:
        for name, (_, report_fn) in REGISTRY.items():
            result = report_fn()
            (out / f"{name}.txt").write_text(result.text + "\n")
    finally:
        set_active_store(None)
        store.close()
    return root


@pytest.fixture()
def populated(populated_template, tmp_path):
    """A private copy of the populated store: tests edit and rebuild files."""
    root = shutil.copytree(populated_template, tmp_path / "populated")
    return root / "results.db", root / "out"


class TestRoundTrip:
    def test_every_report_regenerates_byte_identical(self, populated, capsys):
        db, out = populated
        exit_code = main(["--db", str(db), "rebuild", "--check", "-o", str(out)])
        assert exit_code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("  ok ") == len(REGISTRY)
        assert "DIFF" not in stdout

    def test_rebuild_writes_missing_files(self, populated, tmp_path, capsys):
        db, _ = populated
        fresh = tmp_path / "fresh"
        assert main(["--db", str(db), "rebuild", "-o", str(fresh)]) == 0
        assert (fresh / "table1.txt").exists()
        assert main(["--db", str(db), "rebuild", "--check", "-o", str(fresh)]) == 0

    def test_check_flags_edited_files(self, populated, capsys):
        db, out = populated
        target = out / "table1.txt"
        target.write_text(target.read_text() + "tampered\n")
        assert main(["--db", str(db), "rebuild", "--check", "-o", str(out)]) == 1
        assert "DIFF" in capsys.readouterr().out


class TestCommands:
    def test_runs_lists_every_report(self, populated, capsys):
        db, _ = populated
        assert main(["--db", str(db), "runs"]) == 0
        stdout = capsys.readouterr().out
        for name in REGISTRY:
            assert name in stdout

    def test_trend_writes_report(self, populated, tmp_path, capsys):
        db, _ = populated
        target = tmp_path / "trend.txt"
        assert main(["--db", str(db), "trend", "-o", str(target)]) == 0
        assert "Cross-PR trend report" in target.read_text()

    def test_diff_clean_against_own_snapshot(self, populated, tmp_path, capsys):
        db, _ = populated
        snapshot = tmp_path / "baseline.db"
        assert main(["--db", str(db), "snapshot", "-o", str(snapshot)]) == 0
        assert main(["--db", str(db), "diff", "--baseline", str(snapshot)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_diff_fails_on_gated_run_missing_from_baseline(
        self, populated, tmp_path, capsys
    ):
        db, _ = populated
        snapshot = tmp_path / "baseline.db"
        assert main(["--db", str(db), "snapshot", "fig3", "-o", str(snapshot)]) == 0
        capsys.readouterr()
        assert main(["--db", str(db), "diff", "--baseline", str(snapshot)]) == 1
        stdout = capsys.readouterr().out
        assert "table1." in stdout and "baseline has no row" in stdout
        assert "fig3." not in stdout

    def test_diff_missing_baseline_is_an_error(self, populated, tmp_path, capsys):
        db, _ = populated
        missing = tmp_path / "nope.db"
        assert main(["--db", str(db), "diff", "--baseline", str(missing)]) == 2

    def test_missing_db_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--db", str(tmp_path / "nope.db"), "runs"])
        assert excinfo.value.code == 2
