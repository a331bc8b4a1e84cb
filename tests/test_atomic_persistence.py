"""Atomic persistence: interrupted writes never corrupt existing artifacts.

``repro.atomic.atomic_write_text`` backs every JSON artifact the toolkit
persists (shape caches, plan JSON, reports, benchmark baselines, traces):
content goes to a temp file in the target directory first and lands via
``os.replace``, so a reader -- or a crash -- can only ever observe the old
bytes or the new bytes, never a torn file.
"""

import os
import stat

import pytest

from repro.atomic import atomic_write_text, read_json
from repro.core.tuner import GemmShapeCache


class TestAtomicWriteText:
    def test_writes_content_and_returns_path(self, tmp_path):
        path = atomic_write_text(tmp_path / "out.txt", "hello\n")
        assert path.read_text(encoding="utf-8") == "hello\n"

    def test_creates_parent_directories(self, tmp_path):
        path = atomic_write_text(tmp_path / "a" / "b" / "out.txt", "x")
        assert path.exists()

    def test_overwrites_existing_file(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text(encoding="utf-8") == "new"

    def test_interrupted_write_preserves_the_original(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "precious")

        real_replace = os.replace

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, "torn")
        monkeypatch.setattr(os, "replace", real_replace)

        assert target.read_text(encoding="utf-8") == "precious"

    def test_no_temp_files_left_behind(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "first")

        monkeypatch.setattr(os, "replace",
                            lambda src, dst: (_ for _ in ()).throw(OSError("boom")))
        with pytest.raises(OSError):
            atomic_write_text(target, "second")
        monkeypatch.undo()

        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


class TestReadJson:
    """``read_json`` hands the decoded payload to ``parse`` and reports a
    malformed file as a ``ValueError`` naming it."""

    def test_parse_receives_decoded_payload(self, tmp_path):
        path = atomic_write_text(tmp_path / "in.json", '{"a": [1, 2]}')
        assert read_json(path, lambda payload: payload["a"]) == [1, 2]

    def test_undecodable_file_names_the_file(self, tmp_path):
        path = atomic_write_text(tmp_path / "in.json", "{not json")
        with pytest.raises(ValueError, match=f"malformed {path}: JSONDecodeError: "):
            read_json(path, dict)

    @pytest.mark.parametrize(
        "parse,error",
        [
            (lambda payload: payload[0]["missing"], KeyError),
            (lambda payload: payload + 1, TypeError),
            (lambda payload: payload.items(), AttributeError),
        ],
        ids=["KeyError", "TypeError", "AttributeError"],
    )
    def test_wrong_structure_names_the_file(self, tmp_path, parse, error):
        path = atomic_write_text(tmp_path / "in.json", '[{"present": 1}]')
        with pytest.raises(ValueError, match=f"malformed {path}: {error.__name__}: ") as excinfo:
            read_json(path, parse)
        assert isinstance(excinfo.value.__cause__, error)

    def test_missing_file_stays_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(tmp_path / "absent.json", dict)


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
class TestPermissions:
    """The result carries the mode a plain ``open(path, "w")`` would leave."""

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
    def test_new_file_gets_0o666_minus_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            path = atomic_write_text(tmp_path / "out.json", "{}")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old", encoding="utf-8")
        target.chmod(0o640)
        atomic_write_text(target, "new")
        assert target.read_text(encoding="utf-8") == "new"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640


class TestArtifactsUseAtomicWrites:
    def test_shape_cache_save_survives_interruption(self, tmp_path, monkeypatch):
        cache = GemmShapeCache()
        path = tmp_path / "cache.json"
        cache.save(path)
        before = path.read_text(encoding="utf-8")

        monkeypatch.setattr(os, "replace",
                            lambda src, dst: (_ for _ in ()).throw(OSError("boom")))
        with pytest.raises(OSError):
            cache.save(path)
        monkeypatch.undo()

        assert path.read_text(encoding="utf-8") == before
        assert GemmShapeCache.load(path).to_json() == before

    def test_plan_save_is_atomic_and_newline_terminated(self, tmp_path):
        import repro.api as api

        report = api.plan(smoke=True)
        path = report.winner.save(tmp_path / "plan.json")
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]

    def test_report_save_json_round_trips(self, tmp_path):
        import json

        import repro.api as api

        report = api.plan(smoke=True)
        path = report.save_json(tmp_path / "report.json")
        assert json.loads(path.read_text(encoding="utf-8")) == report.to_dict()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
