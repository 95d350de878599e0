"""Shared-memory blocks that carry a request's tiles to a worker on the
same host.

The client creates every block with multiprocessing.shared_memory (create),
so that its resource tracker removes the blocks should the client die, and
unlinks each one itself (destroy) when a request needs a larger one or its
stream ends. A stream holds at most one block per stage and same-host
worker, and sends that worker one request at a time on it, so a block is
never written while a worker reads it. A worker maps a block by name,
read-only, when a request on a connection first names it, and unmaps it
when a request names another block or the connection ends. The worker
registers the mapping with no resource tracker: a worker spawned by the
client shares the client's tracker, so registering there would have the
block unlinked when the worker exits, and unregistering would cancel the
client's own registration.
"""

from __future__ import annotations

import mmap
import os
import re
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


def create(name: str, nbytes: int) -> SharedMemory:
    """Create the named block of nbytes with its memory allocated. Raises
    OSError, and leaves no block behind, when the host cannot hold it."""
    block = SharedMemory(name, create=True, size=nbytes)
    try:
        _reserve(name, nbytes)
    except OSError:
        destroy(block)
        raise
    return block


def destroy(block: SharedMemory) -> None:
    """Unlink a block and unmap it. If a view of it is still alive (as in a
    failed cut's traceback), the mapping goes with the last view instead."""
    block.unlink()
    try:
        block.close()
    except BufferError:
        pass
