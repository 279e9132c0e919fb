"""Embedding tables with an in-RAM default and a lazy ``np.memmap`` backend.

An :class:`EmbeddingStore` holds one 2-D embedding table — entity or
relation rows of one evolved snapshot, or a raw parameter table.  The
``ram`` backend wraps an ordinary ndarray; the ``memmap`` backend holds
only a ``.npy`` path and opens a read-only memory map on first access,
so a table larger than RAM costs pages only for the rows actually
touched (the blocked scorers read the candidate axis in slices).

Memmap stores pickle as their path alone (the open map is dropped and
reopened lazily on the other side), which is what lets sharded-eval
pool workers share one on-disk table instead of each copying it.

``.npy`` is used rather than ``.npz`` because :func:`numpy.load` can
only memory-map the former.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional, Tuple

import numpy as np

BACKEND_RAM = "ram"
BACKEND_MEMMAP = "memmap"


class EmbeddingStore:
    """One embedding table, resident in RAM or lazily memory-mapped.

    Build with :meth:`from_array` (RAM), :meth:`save` (write ``.npy``
    and return the memmap view of it), or :meth:`open` (attach to an
    existing ``.npy``).  ``store.data`` always yields a read-only 2-D
    array; for the memmap backend nothing is read from disk until then.
    """

    def __init__(self, *, array: Optional[np.ndarray] = None, path: Optional[str] = None):
        if (array is None) == (path is None):
            raise ValueError("exactly one of array/path must be given")
        self._path = None if path is None else os.fspath(path)
        self._data: Optional[np.ndarray] = None
        if array is not None:
            array = np.asarray(array)
            if array.ndim != 2:
                raise ValueError(f"embedding tables are 2-D, got shape {array.shape}")
            self._data = array

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_array(cls, array: np.ndarray) -> "EmbeddingStore":
        """In-RAM store over ``array`` (no copy)."""
        return cls(array=np.asarray(array))

    @classmethod
    def save(cls, path: str, array: np.ndarray) -> "EmbeddingStore":
        """Atomically write ``array`` to a new ``path`` (``.npy``), return a memmap store.

        The write goes to a same-directory temp file that is fsynced and
        then hard-linked to ``path`` — a crash mid-write never leaves a
        truncated table behind.  An existing ``path`` is never replaced
        (``FileExistsError``): lazy memmaps and pool workers reopen
        tables by path, so overwriting one would silently swap the
        embeddings under a reader that has not opened it yet.
        """
        path = os.fspath(path)
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError(f"embedding tables are 2-D, got shape {array.shape}")
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".npy.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.save(handle, array)
                handle.flush()
                os.fsync(handle.fileno())
            os.link(tmp_path, path)
        finally:
            os.unlink(tmp_path)
        return cls(path=path)

    @classmethod
    def open(cls, path: str) -> "EmbeddingStore":
        """Lazy memmap store over an existing ``.npy`` table."""
        return cls(path=os.fspath(path))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return BACKEND_RAM if self._path is None else BACKEND_MEMMAP

    @property
    def path(self) -> Optional[str]:
        return self._path

    @property
    def data(self) -> np.ndarray:
        """The table; opens the read-only memmap on first access."""
        if self._data is None:
            self._data = np.lib.format.open_memmap(self._path, mode="r")
            if self._data.ndim != 2:
                raise ValueError(
                    f"{self._path} holds a {self._data.ndim}-D array; "
                    "embedding tables are 2-D"
                )
        return self._data

    @property
    def shape(self) -> Tuple[int, int]:
        return tuple(self.data.shape)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def materialize(self) -> np.ndarray:
        """An in-RAM copy of the full table."""
        return np.array(self.data)

    def __repr__(self) -> str:
        if self._path is not None:
            opened = "open" if self._data is not None else "lazy"
            return f"EmbeddingStore(memmap {self._path!r}, {opened})"
        return f"EmbeddingStore(ram shape={self._data.shape} dtype={self._data.dtype})"

    # ------------------------------------------------------------------
    # Pickling: a memmap store ships its path only
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if self._path is not None:
            state["_data"] = None  # the receiver reopens lazily
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
