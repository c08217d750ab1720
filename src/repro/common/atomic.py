"""Crash-safe file publication, shared by every durable tier."""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable


def publish(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``path`` atomically: ``write`` fills a ``.tmp`` sibling,
    which is flushed, fsynced and then ``os.replace``d into place.

    A crash before the replace leaves the previous file (or none) under
    ``path``; a crash after leaves the new one complete. There is no
    window with a torn file under the live name.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
