"""Persistent JSONL result store with resume-on-rerun.

One sweep run appends one JSON object per completed job to a ``.jsonl`` file.
Append-only JSONL keeps concurrent sweeps cheap (no rewrite-the-world on every
job) and makes resume trivial: a re-run loads the completed job IDs and skips
them.  Records from interrupted runs survive, so a sweep can be killed and
resumed without losing finished work.

A run killed *mid-write* leaves a truncated final line; such partial records
are quarantined (skipped and counted on :attr:`ResultStore.quarantined`)
rather than raised, so the resumed run retries the interrupted job instead of
crashing on load.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping
from pathlib import Path


class ResultStore:
    """Append-only JSONL storage of sweep job records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Undecodable lines skipped by the last :meth:`records` scan
        #: (typically one truncated trailing record from a killed run).
        self.quarantined = 0
        # Once this store has appended (or probed) the file, its tail is known
        # to end in a newline; skip the per-append probe from then on.
        self._tail_known_clean = False

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def append(self, record: Mapping) -> None:
        """Durably append one job record (creates parent directories).

        If the file ends in a partial line (a run killed mid-write), the new
        record starts on a fresh line so the truncated record cannot swallow
        it.
        """
        if "job_id" not in record:
            raise KeyError("sweep records must carry a 'job_id'")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        needs_newline = False
        if not self._tail_known_clean and self.path.exists() and self.path.stat().st_size > 0:
            with self.path.open("rb") as peek:
                peek.seek(-1, 2)
                needs_newline = peek.read(1) != b"\n"
        with self.path.open("a", encoding="utf-8") as handle:
            if needs_newline:
                handle.write("\n")
            handle.write(json.dumps(dict(record), sort_keys=True) + "\n")
        self._tail_known_clean = True

    def records(self) -> Iterator[dict]:
        """All decodable records in append order (empty iterator if no file).

        Partial records (a truncated trailing line, or any line that is not
        valid JSON) are skipped and counted on :attr:`quarantined` -- their
        job IDs never enter the resume skip-set, so the jobs are retried.
        """
        if not self.path.exists():
            return
        self.quarantined = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self.quarantined += 1
                    continue
                yield record

    def completed_ids(self) -> set[str]:
        """Job IDs that finished successfully (the resume skip-set).

        Failed records stay in the file for post-mortems but are *not*
        considered complete, so a resumed run retries them.
        """
        return {
            record["job_id"]
            for record in self.records()
            if record.get("status", "ok") == "ok"
        }
