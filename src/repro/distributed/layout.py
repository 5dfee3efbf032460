"""Rank-blocked vector layouts.

A distributed vector is stored as one contiguous array in *distributed
ordering*: rank 0's owned entries, then rank 1's, etc.  A :class:`Layout`
records the rank boundaries so per-rank views are free slices — vector
updates stay single fused numpy operations (the guides' vectorization rule)
while preconditioners still see per-rank blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Layout:
    """Offsets of each rank's block inside a distributed array."""

    rank_ptr: np.ndarray  # (P+1,) int offsets

    @staticmethod
    def from_sizes(sizes) -> "Layout":
        sizes = np.asarray(sizes, dtype=np.int64)
        return Layout(np.concatenate(([0], np.cumsum(sizes))).astype(np.int64))

    @property
    def num_ranks(self) -> int:
        return len(self.rank_ptr) - 1

    @property
    def total(self) -> int:
        return int(self.rank_ptr[-1])

    # a layout never changes, and inner products ask for both of these on
    # every call: computed once (cached_property stores past the freeze)

    @cached_property
    def sizes(self) -> np.ndarray:
        sizes = np.diff(self.rank_ptr)
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """Every rank's block as a slice, in rank order."""
        ptr = self.rank_ptr.tolist()
        return tuple(slice(lo, hi) for lo, hi in zip(ptr, ptr[1:]))

    def local_slice(self, rank: int) -> slice:
        return self.slices[rank]

    def local(self, x: np.ndarray, rank: int) -> np.ndarray:
        """Rank ``rank``'s block of distributed array ``x`` (a view)."""
        return x[self.slices[rank]]

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """All per-rank views of ``x``."""
        return [x[s] for s in self.slices]

    def zeros(self) -> np.ndarray:
        return np.zeros(self.total)
