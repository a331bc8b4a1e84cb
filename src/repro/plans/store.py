"""Content-addressed store of priced sweep cells.

A sweep job prices one *cell*: tune (or warm-start) a partition for an
overlap problem, then price it with :func:`~repro.core.overlap.price_plan`.
That is a deterministic function of the scenario content -- shape, platform,
collective, imbalance, seed and settings overrides -- and of the pricing
rule, so a sweep point whose content is unchanged since a previous run does
not need to be re-priced at all.  The sweep keys the priced outputs in a
:class:`PricedCellStore` by a content hash of the scenario and
``PRICING_VERSION`` (:func:`plan_key`, the canonical-JSON digest that
``Scenario.job_id`` also truncates) and replays them on a hit; only the cells whose
content or pricing rule changed are re-simulated.  That is the incremental-re-simulation
half of ROADMAP item 3: editing one axis of a big matrix re-prices the
touched cells and replays the rest from the store.

Determinism across worker counts holds because only the parent process of
:class:`~repro.sweep.runner.SweepRunner` reads and writes the store: it looks
every pending job's cell up before any job runs, replays the hits itself and
sends only the misses to the workers, then stores the fresh cells from the
job records after the run.  So the store's hit/miss counters are the same on
any worker count.  Replayed values are bit-identical to recomputed ones
because the pricing pipeline is seeded and deterministic, which the
differential tests assert.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from pathlib import Path

from repro import obs
from repro.atomic import atomic_write_text, read_json

__all__ = ["plan_key", "PricedCellStore"]


def plan_key(payload: Mapping) -> str:
    """Content hash of a JSON-serialisable payload (canonical form).

    The digest is stable across runs, hosts and dict insertion orders, so
    it keys any cell whose pricing is a pure function of its content;
    ``Scenario.job_id`` is its first 12 hex digits.
    """
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:24]


class PricedCellStore:
    """Mapping of content keys to priced cell payloads, with hit/miss stats.

    Cells are plain JSON dicts (latencies, partition, speedups) so the store
    round-trips through disk without bespoke codecs.
    """

    def __init__(self) -> None:
        self._cells: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cells)

    def lookup(self, key: str) -> dict | None:
        """The stored cell for ``key``, or None (counted as hit/miss)."""
        cell = self._cells.get(key)
        if cell is None:
            self.misses += 1
            obs.counter("priced_cells.misses").inc()
            return None
        self.hits += 1
        obs.counter("priced_cells.hits").inc()
        return dict(cell)

    def add(self, key: str, cell: Mapping) -> None:
        """Store (or overwrite) the priced cell for ``key``."""
        self._cells[key] = dict(cell)

    def stats(self) -> dict:
        return {
            "size": len(self._cells),
            "hits": self.hits,
            "misses": self.misses,
        }

    # -- serialisation -----------------------------------------------------------

    @classmethod
    def from_dict(cls, cells: dict) -> "PricedCellStore":
        store = cls()
        for key, cell in cells.items():
            store._cells[str(key)] = dict(cell)
        return store

    def save(self, path: str | Path) -> None:
        """Atomically persist the cells (temp file + rename); stats are run-local."""
        atomic_write_text(path, json.dumps(self._cells, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path, missing_ok: bool = False) -> "PricedCellStore":
        """Load a store written by :meth:`save`.

        ``missing_ok`` returns an empty store for a missing file (the
        warm-start idiom on a first run).
        """
        target = Path(path)
        if not target.exists():
            if missing_ok:
                return cls()
            raise FileNotFoundError(f"no priced-cell store at {target}")
        return read_json(target, cls.from_dict)
