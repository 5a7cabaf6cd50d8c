"""Fingerprint-keyed record cache.

One JSON file per experiment fingerprint, written atomically (temp file
plus rename), so concurrent readers never observe a partial entry and at
most one writer wins per entry. A corrupt or unreadable entry logs a
warning and counts as a miss; the next store overwrites it.
"""
from __future__ import annotations

import json
import logging
from pathlib import Path

from .records import SurveyRecord, _atomic_write_text, records_to_json

logger = logging.getLogger(__name__)


class ResultCache:
    """Maps experiment fingerprints to stored record files under one root."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def lookup(self, fingerprint: str) -> SurveyRecord | None:
        path = self.path_for(fingerprint)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            record = SurveyRecord.from_payload(payload)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            logger.warning("discarding corrupt cache entry %s: %s", path, exc)
            return None
        if record.fingerprint != fingerprint:
            logger.warning(
                "cache entry %s does not match its fingerprint; ignoring", path
            )
            return None
        return record

    def store(self, record: SurveyRecord) -> Path:
        path = self.path_for(record.fingerprint)
        _atomic_write_text(path, records_to_json([record]))
        return path

    def entries(self) -> dict[str, Path]:
        """Manifest view: fingerprint to file for every *.json entry, corrupt ones included."""
        return {p.stem: p for p in sorted(self.root.glob("*.json"))}
