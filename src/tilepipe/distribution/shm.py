"""Shared-memory blocks that carry a request's tiles to a worker on the
same host.

The client creates every block with multiprocessing.shared_memory, so that
its resource tracker removes the blocks should the client die, and it
unlinks each one itself when its stream ends. A worker maps a block by name,
read-only, for one request and unmaps it before it replies. The worker
registers the mapping with no resource tracker: a worker spawned by the
client shares the client's tracker, so registering there would have the
block unlinked when the worker exits, and unregistering would cancel the
client's own registration.
"""

from __future__ import annotations

import itertools
import mmap
import os
import re
import secrets
import threading
from multiprocessing.shared_memory import SharedMemory

try:
    import _posixshmem
except ImportError:  # no POSIX shared memory: probes fail, tiles go over TCP
    _posixshmem = None

# Every block name is PREFIX and hex digits; a worker maps no other name.
PREFIX = "tilepipe_"
_NAME = re.compile(PREFIX + "[0-9a-f]{1,32}")
# Size of the random nonce a HEALTH probe writes into its block.
PROBE_BYTES = 16


def attach(name) -> mmap.mmap:
    """Map the named block read-only, registered with no resource tracker.

    Raises ValueError for a name the client never makes, or an empty block,
    and OSError when no block of that name can be opened.
    """
    if not (isinstance(name, str) and _NAME.fullmatch(name)):
        raise ValueError(f"block name must be {PREFIX!r} then hex digits, got {name!r}")
    if _posixshmem is None:
        raise OSError("no POSIX shared memory on this host")
    fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size, prot=mmap.PROT_READ)
    finally:
        os.close(fd)


def detach(mapping: mmap.mmap) -> None:
    """Unmap a block. If a view of it is still alive (a detector that kept
    its tile), the mapping goes with the last view instead."""
    try:
        mapping.close()
    except BufferError:
        pass


def _reserve(name: str, nbytes: int) -> None:
    """Allocate a new block's memory now. A write to a page that a full
    /dev/shm cannot back kills the process with SIGBUS; this raises OSError
    instead, before any tile is cut into the block."""
    if not hasattr(os, "posix_fallocate"):
        return
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0)
    try:
        os.posix_fallocate(fd, 0, nbytes)
    finally:
        os.close(fd)


def _unmap(block: SharedMemory) -> None:
    try:
        block.close()
    except BufferError:  # a view outlives its request, as in a failed cut's traceback
        pass


class Blocks:
    """One stream's blocks, named PREFIX + a random stream token + a serial
    number, and kept on a free list between requests.

    take() hands out the smallest free block that holds the bytes asked for.
    When none does, it replaces a free block with a larger one, or adds a
    block if none is free, so there are never more blocks than requests that
    ran at once. take() raises OSError when the host cannot hold a new
    block. close() unlinks every block; one still out on a request is
    unmapped when it is given back.
    """

    def __init__(self):
        self.prefix = PREFIX + secrets.token_hex(4)
        self._serial = itertools.count()
        self._lock = threading.Lock()
        self._free: list[SharedMemory] = []
        self._live: list[SharedMemory] = []
        self._closed = False

    def take(self, nbytes: int) -> SharedMemory:
        with self._lock:
            if self._closed:
                raise RuntimeError("the stream's blocks are closed")
            fits = [block for block in self._free if block.size >= nbytes]
            if fits:
                block = min(fits, key=lambda b: b.size)
                self._free.remove(block)
                return block
            if self._free:
                small = self._free.pop()
                self._live.remove(small)
                small.unlink()
                _unmap(small)
            name = f"{self.prefix}{next(self._serial):x}"
            block = SharedMemory(name, create=True, size=nbytes)
            try:
                _reserve(name, nbytes)
            except OSError:
                block.close()
                block.unlink()
                raise
            self._live.append(block)
            return block

    def give_back(self, block: SharedMemory) -> None:
        """Return a block once its request has a reply or has failed."""
        with self._lock:
            if self._closed:
                _unmap(block)
            else:
                self._free.append(block)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for block in self._live:
                block.unlink()
            for block in self._free:
                _unmap(block)
            self._live, self._free = [], []
