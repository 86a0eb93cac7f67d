"""Regenerate the pinned hashes in :mod:`repro.lint.manifest`.

``repro lint --manifest-update`` is the *only* sanctioned way to touch
the pins: it recomputes the two frozen-oracle SHA-256s from the
current tree and rewrites those two string literals in the manifest's
own text, leaving every other byte as it is, in one atomic
``os.replace``, so the manifest can never be half-new.

The update runs only when the working tree has no uncommitted changes
*besides* the files whose pins are being regenerated (the two oracles
and the manifest itself).  The intended workflow — edit an oracle,
regenerate, commit everything together — stays a single reviewed
change, while regenerating pins in the middle of unrelated
uncommitted churn (where the reviewer cannot tell which edit the new
hash blesses) is refused.

See "Regenerating the manifest" in ``docs/STATIC_ANALYSIS.md``.
"""

import hashlib
import os
import re
import subprocess
import tempfile

from repro.lint import manifest

#: Root-relative path of the file this module rewrites.
MANIFEST_PATH = "src/repro/lint/manifest.py"

#: Files allowed to carry uncommitted changes during an update: the
#: ones whose pins are being regenerated, plus the manifest itself.
_ALLOWED_DIRTY = frozenset({
    MANIFEST_PATH,
    manifest.ORACLE_PATH,
    manifest.CYCLESIM_ORACLE_PATH,
})

#: The two pinned literals, by name: ``NAME = (\n    "<sha>"\n)``.
_PINS = ("ORACLE_SHA256", "CYCLESIM_ORACLE_SHA256")


class ManifestUpdateError(Exception):
    """The manifest could not (or must not) be regenerated."""


def _read_normalised(root, relpath):
    path = os.path.join(root, relpath)
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().replace("\r\n", "\n")
    except OSError as exc:
        raise ManifestUpdateError(
            f"cannot read {relpath}: {exc}"
        ) from exc


def _unexpected_dirty_paths(root):
    """Uncommitted paths that are *not* part of a manifest update."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        raise ManifestUpdateError(
            "not a git work tree (or git is unavailable): the dirty-"
            "tree check cannot run, so the manifest is not regenerated"
        ) from exc
    unexpected = []
    for line in proc.stdout.splitlines():
        if len(line) < 4:
            continue
        path = line[3:]
        # Renames are reported as "old -> new"; the new path counts.
        if " -> " in path:
            path = path.split(" -> ", 1)[1]
        path = path.strip().strip('"')
        if path not in _ALLOWED_DIRTY:
            unexpected.append(path)
    return unexpected


def update_manifest(root="."):
    """Rewrite the two pins of ``manifest.py``; returns a summary dict.

    Raises :class:`ManifestUpdateError` when the tree carries
    uncommitted changes beyond the pinned files, or the manifest, a
    pin literal in it or an oracle cannot be read.
    """
    dirty = _unexpected_dirty_paths(root)
    if dirty:
        shown = ", ".join(sorted(dirty)[:5])
        if len(dirty) > 5:
            shown += f", ... ({len(dirty) - 5} more)"
        raise ManifestUpdateError(
            f"refusing to regenerate pins in a dirty tree: {shown}"
            " — commit or stash everything except the pinned change"
            " first, so the new fingerprint blesses exactly one edit"
        )

    oracle_sha = hashlib.sha256(
        _read_normalised(root, manifest.ORACLE_PATH).encode()
    ).hexdigest()
    cyclesim_oracle_sha = hashlib.sha256(
        _read_normalised(root, manifest.CYCLESIM_ORACLE_PATH).encode()
    ).hexdigest()

    target = os.path.join(root, MANIFEST_PATH)
    try:
        with open(target, encoding="utf-8", newline="") as handle:
            current = handle.read()
    except OSError as exc:
        raise ManifestUpdateError(
            f"cannot read {MANIFEST_PATH}: {exc}"
        ) from exc
    content = current
    for name, sha in zip(_PINS, (oracle_sha, cyclesim_oracle_sha)):
        content, count = re.subn(
            rf'(?m)^({name} = \(\s*")[^"]*"', rf'\g<1>{sha}"', content)
        if count != 1:
            raise ManifestUpdateError(
                f"{MANIFEST_PATH} has no single {name} literal to rewrite")
    changed = content != current
    if changed:
        # One atomic replace: the manifest is never observable half-new.
        fd, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(target), prefix=".manifest-", suffix=".py"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8",
                           newline="") as handle:
                handle.write(content)
            os.replace(temp_path, target)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    return {
        "oracle_sha256": oracle_sha,
        "cyclesim_oracle_sha256": cyclesim_oracle_sha,
        "changed": changed,
    }
