"""Identifier types for objects, tasks, actors, functions, and nodes.

Ray identifies every entity in the system with a fixed-width binary ID.  The
GCS shards its tables by these IDs, and object IDs are *derived
deterministically* from the ID of the task that produces them — this is what
makes lineage-based reconstruction possible: when an object is lost, the
system re-executes the producing task, which re-creates an object with the
same ID.

We follow the same scheme: 20-byte IDs, with object IDs computed as
``sha1(task_id || return_index)``.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Optional
from repro.common.lockwatch import make_lock

ID_LENGTH = 20

_counter_lock = make_lock("ids._counter_lock")
_counter = 0

# Random salts are drawn from a slab refilled once per _SLAB_IDS ids: one
# os.urandom syscall amortized over the slab instead of paid per ID.  The
# monotonic counter (leading 8 bytes) still guarantees process-uniqueness;
# the random tail keeps shard_index (trailing 4 bytes) well spread.
_SLAB_IDS = 1024
_SALT_BYTES = ID_LENGTH - 8
_salt_slab = b""
_salt_offset = 0


def _unique_bytes() -> bytes:
    """Return 20 process-unique bytes (monotonic counter + random salt)."""
    global _counter, _salt_slab, _salt_offset
    with _counter_lock:
        _counter += 1
        n = _counter
        if _salt_offset >= len(_salt_slab):
            _salt_slab = os.urandom(_SALT_BYTES * _SLAB_IDS)
            _salt_offset = 0
        salt = _salt_slab[_salt_offset:_salt_offset + _SALT_BYTES]
        _salt_offset += _SALT_BYTES
    return n.to_bytes(8, "little") + salt


class BaseID:
    """A fixed-width, hashable, immutable binary identifier."""

    __slots__ = ("_binary", "_short", "_hash")

    def __init__(self, binary: bytes):
        if not isinstance(binary, bytes) or len(binary) != ID_LENGTH:
            raise ValueError(
                f"{type(self).__name__} requires {ID_LENGTH} bytes, "
                f"got {binary!r}"
            )
        object.__setattr__(self, "_binary", binary)
        object.__setattr__(self, "_short", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Needed because __setattr__ is blocked: pickle must reconstruct
        # through __init__ rather than by setting state.
        return (type(self), (self._binary,))

    @classmethod
    def from_random(cls) -> "BaseID":
        return cls(_unique_bytes())

    @classmethod
    def from_seed(cls, seed: str) -> "BaseID":
        """Deterministic ID from a string seed (used in tests and the sim)."""
        return cls(hashlib.sha1(seed.encode("utf-8")).digest())

    @classmethod
    def nil(cls) -> "BaseID":
        return cls(b"\x00" * ID_LENGTH)

    def is_nil(self) -> bool:
        return self._binary == b"\x00" * ID_LENGTH

    def binary(self) -> bytes:
        return self._binary

    def hex(self) -> str:
        return self._binary.hex()

    def short(self) -> str:
        """The 8-char hex prefix used in trace events and log lines.

        Cached: every lifecycle event of a task carries it, so the events
        share one string instead of each holding its own copy."""
        value = self._short
        if value is None:
            value = self._binary[:4].hex()
            object.__setattr__(self, "_short", value)
        return value

    def __hash__(self) -> int:
        # Cached: IDs key every hot-path dict (task tables, stores, shard
        # routing), so one ID is hashed dozens of times per task.
        value = self._hash
        if value is None:
            value = hash((type(self).__name__, self._binary))
            object.__setattr__(self, "_hash", value)
        return value

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._binary == self._binary

    def __lt__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._binary < other._binary

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.hex()[:12]})"


class TaskID(BaseID):
    __slots__ = ()


class NodeID(BaseID):
    __slots__ = ()


class FunctionID(BaseID):
    __slots__ = ()

    @classmethod
    def from_function(cls, module: str, qualname: str) -> "FunctionID":
        return cls.from_seed(f"func:{module}.{qualname}")


class ActorID(BaseID):
    __slots__ = ()


class ObjectID(BaseID):
    """ID of an immutable object; derived from its producing task.

    ``ObjectID.for_task_return(task_id, i)`` is a pure function so that a
    re-executed task writes its outputs under the *same* IDs — the heart of
    lineage reconstruction (paper Section 4.2.3).
    """

    __slots__ = ()

    @classmethod
    def for_task_return(cls, task_id: TaskID, index: int) -> "ObjectID":
        if index < 0:
            raise ValueError("return index must be non-negative")
        digest = hashlib.sha1(
            task_id.binary() + index.to_bytes(4, "little")
        ).digest()
        return cls(digest)

    @classmethod
    def for_put(cls, task_id: TaskID, put_index: int) -> "ObjectID":
        """ID for an object created via ``put`` inside task ``task_id``."""
        digest = hashlib.sha1(
            b"put:" + task_id.binary() + put_index.to_bytes(4, "little")
        ).digest()
        return cls(digest)


def shard_index(entity_id: BaseID, num_shards: int) -> int:
    """Map an ID onto one of ``num_shards`` GCS shards.

    Uses the trailing bytes of the ID so that object IDs derived from the
    same task spread across shards.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    return int.from_bytes(entity_id.binary()[-4:], "little") % num_shards


def deterministic_task_id(
    parent: TaskID, submission_index: int, salt: Optional[str] = None
) -> TaskID:
    """Task ID derived from the parent task and the submission order.

    Replaying a driver or worker therefore regenerates identical task IDs,
    which keeps lineage replay idempotent.
    """
    payload = parent.binary() + submission_index.to_bytes(8, "little")
    if salt:
        payload += salt.encode("utf-8")
    return TaskID(hashlib.sha1(payload).digest())
