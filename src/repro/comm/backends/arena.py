"""Shared-memory arenas: where MATVEC and APPLY vectors cross a rank boundary.

Each rank of a real world gets one arena at its first vector op: an
anonymous ``memfd`` segment the driver creates and maps, and the rank maps
through ``/proc/<driver pid>/fd/<fd>``.  Nothing is named, so nothing can
be left behind in ``/dev/shm``, and no ``multiprocessing`` resource
tracker is involved: the segment is freed when the last mapping of it goes,
including a rank's at SIGKILL.

The arena holds two slots of ``nfloats`` doubles: the driver writes a
command's input into the first, the rank writes the result into the
second.  The command frame names the arena (:attr:`Arena.spec`) and carries
a CRC-32 of the input; the result carries a CRC-32 of the output.  Either
check failing is a :class:`~repro.resilience.errors.MessageCorruption`, so
a corrupted slot is retried like a garbled frame.
"""

from __future__ import annotations

import mmap
import os
import zlib

import numpy as np

from repro.resilience.errors import MessageCorruption


def crc(values: np.ndarray) -> int:
    """CRC-32 of an array's bytes (the slot checksum)."""
    return zlib.crc32(np.ascontiguousarray(values))


class Arena:
    """One rank's two-slot shared segment, as mapped in one process."""

    def __init__(self, fd: int, nbytes: int, gen: int, pid: int) -> None:
        self.fd, self.nbytes, self.gen, self.pid = fd, nbytes, gen, pid
        self.nfloats = nbytes // 16
        self._map = mmap.mmap(fd, nbytes)
        self.inp = np.frombuffer(self._map, np.float64, self.nfloats, 0)
        self.out = np.frombuffer(self._map, np.float64, self.nfloats, nbytes // 2)

    @classmethod
    def create(cls, nfloats: int, gen: int) -> "Arena":
        """A new segment, created and mapped by the driver."""
        fd = os.memfd_create("repro-arena", os.MFD_CLOEXEC)
        try:
            os.ftruncate(fd, 16 * nfloats)
            return cls(fd, 16 * nfloats, gen, os.getpid())
        except BaseException:
            os.close(fd)
            raise

    @classmethod
    def attach(cls, spec) -> "Arena":
        """Map the driver's segment named by ``spec`` into this (rank) process."""
        pid, fd, nbytes, gen = (int(v) for v in spec)
        own = os.open(f"/proc/{pid}/fd/{fd}", os.O_RDWR)
        try:
            arena = cls(own, nbytes, gen, pid)
        finally:
            os.close(own)  # the mapping keeps its own reference
        arena.fd = -1
        return arena

    @property
    def spec(self) -> list[int]:
        """What a command frame carries to name this arena."""
        return [self.pid, self.fd, self.nbytes, self.gen]

    def put(self, values: np.ndarray) -> None:
        """Write ``values`` into the input slot."""
        self.inp[: values.size] = values

    def take(self, slot: np.ndarray, n: int, want: int, what: str) -> np.ndarray:
        """The first ``n`` doubles of ``slot``, checked against CRC ``want``."""
        got = slot[:n]
        actual = crc(got)
        if actual != want:
            raise MessageCorruption(
                f"arena {what} slot checksum mismatch", reason="slot-checksum",
                expected=want, got=actual,
            )
        return got

    def close(self) -> None:
        """Unmap (and, in the driver, close the fd); idempotent."""
        del self.inp, self.out
        try:
            self._map.close()
        except BufferError:
            pass  # a caller still holds a view: the mapping goes with it
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1
        self.inp = self.out = np.empty(0)
