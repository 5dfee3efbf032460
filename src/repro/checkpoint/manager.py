"""Checkpoint directory management: naming, retention, corruption fallback.

A :class:`CheckpointManager` owns one directory of numbered
``<prefix>_<step>.ckpt`` files.  ``save`` is atomic and prunes old
snapshots down to ``KEEP``; ``load_latest`` walks the snapshots newest
first and *skips* any that fail integrity validation (emitting a
``resilience.ckpt.corrupt`` trace event), so a torn disk or a crashed
writer degrades to an older restore point instead of a failed restart.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro import obs
from repro.checkpoint.errors import CheckpointCorruption, CheckpointNotFound
from repro.checkpoint.format import Checkpoint, read_checkpoint, write_checkpoint

#: snapshots retained per prefix; older ones are pruned after each save
KEEP = 3


class CheckpointManager:
    """Numbered checkpoints in one directory, newest-first recovery.

    Parameters
    ----------
    directory:
        Where snapshots live; created on first save.
    prefix:
        Filename stem, so several state families can share a directory.
    """

    def __init__(self, directory: str | Path, prefix: str = "ckpt") -> None:
        if not re.fullmatch(r"[A-Za-z0-9._-]+", prefix):
            raise ValueError(f"prefix {prefix!r} must be filename-safe")
        self.directory = Path(directory)
        self.prefix = prefix
        self._step_re = re.compile(re.escape(prefix) + r"_(\d+)\.ckpt$")

    def path_for(self, step: int) -> Path:
        return self.directory / f"{self.prefix}_{step:08d}.ckpt"

    def steps(self) -> list[int]:
        """Snapshot step numbers present on disk, ascending."""
        if not self.directory.is_dir():
            return []
        found = []
        for p in self.directory.iterdir():
            m = self._step_re.fullmatch(p.name)
            if m:
                found.append(int(m.group(1)))
        return sorted(found)

    def save(
        self, step: int, arrays: dict[str, np.ndarray], meta: dict | None = None
    ) -> Path:
        """Atomically snapshot ``arrays`` as step ``step``; prunes old files."""
        if step < 0:
            raise ValueError("step must be >= 0")
        self.directory.mkdir(parents=True, exist_ok=True)
        meta = dict(meta or {})
        meta["step"] = int(step)
        path = write_checkpoint(self.path_for(step), arrays, meta)
        obs.event("resilience.ckpt.save", step=int(step), path=str(path))
        for old in self.steps()[:-KEEP]:
            self.path_for(old).unlink(missing_ok=True)
        return path

    def load(self, step: int) -> Checkpoint:
        """Load one specific snapshot (integrity-checked)."""
        path = self.path_for(step)
        if not path.exists():
            raise CheckpointNotFound(
                f"no checkpoint for step {step}", path=str(path)
            )
        return read_checkpoint(path)

    def load_latest(self) -> Checkpoint | None:
        """The newest snapshot that passes validation, or None.

        Corrupt snapshots are skipped (newest first) with a
        ``resilience.ckpt.corrupt`` trace event, so recovery falls back to
        the most recent *intact* restore point.  A snapshot that vanishes
        between the directory listing and the read (a concurrent writer's
        retention pruning) is skipped silently, and when every snapshot of
        a listing vanished the directory is listed again: pruning means the
        writer saved newer ones.  Saves are atomic write-then-rename, so
        whatever file the reader does open is either a complete CRC-valid
        snapshot or detectably corrupt, never torn.
        """
        vanished = True
        while vanished:
            vanished = False
            for step in reversed(self.steps()):
                try:
                    ckpt = read_checkpoint(self.path_for(step))
                except FileNotFoundError:
                    vanished = True  # pruned while we were walking
                    continue
                except CheckpointCorruption as exc:
                    obs.event(
                        "resilience.ckpt.corrupt", step=step,
                        path=str(self.path_for(step)), error=str(exc),
                    )
                    continue
                obs.event("resilience.ckpt.restore", step=step,
                          path=str(ckpt.path))
                return ckpt
        return None
