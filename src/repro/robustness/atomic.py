"""Atomic file persistence: write-temp-then-rename.

Every archive and result file the reproduction writes goes through
these helpers.  The payload is written to a temporary sibling file and
moved into place with :func:`os.replace` (atomic on POSIX and Windows
within a filesystem), so an interrupted or failed write never leaves a
truncated file at the destination path — the destination either keeps
its previous content or receives the complete new content.
"""

import contextlib
import os
import tempfile
import zipfile

import numpy as np


@contextlib.contextmanager
def atomic_write(path, mode="wb"):
    """Context manager yielding a temp-file handle; renames on success.

    The temporary file is created next to *path* (same filesystem, so
    the final :func:`os.replace` is atomic), fsynced, and renamed over
    *path* only if the ``with`` body completes without raising.  On
    any failure the temporary file is removed and *path* is untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path, text):
    """Atomically write *text* to *path* (temp file + rename)."""
    with atomic_write(path, "w") as handle:
        handle.write(text)


def atomic_savez(path, **arrays):
    """Atomically write a compressed ``.npz`` archive of *arrays*.

    The archive is the one :func:`numpy.savez_compressed` writes (one
    ``<name>.npy`` member per array, no pickles), deflated at level 1
    instead of zlib's default 6: much faster to write, somewhat larger
    (measured in ``docs/PERFORMANCE.md``).  :func:`numpy.load` reads
    either level.  Writing through a file handle (not a path) keeps the
    temporary name exact for the rename.
    """
    with atomic_write(path, "wb") as handle:
        with zipfile.ZipFile(handle, "w", zipfile.ZIP_DEFLATED,
                             compresslevel=1, allowZip64=True) as archive:
            for name, array in arrays.items():
                with archive.open(f"{name}.npy", "w",
                                  force_zip64=True) as member:
                    np.lib.format.write_array(
                        member, np.asanyarray(array), allow_pickle=False
                    )
