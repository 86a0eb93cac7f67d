"""Regenerate the pinned hashes in :mod:`repro.lint.manifest`.

``repro lint --manifest-update`` is the *only* sanctioned way to touch
the manifest: it recomputes the two frozen-oracle SHA-256s from the
current tree and rewrites the whole file in one atomic
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

_TEMPLATE = '''\
"""Pinned content hashes of the frozen oracles.

``repro.core.mlpsim_reference`` is the pre-optimization MLPsim engine,
kept bit-identical as the oracle for the engine-equivalence suite
(PR 2), and ``repro.cyclesim.simulator_reference`` is the
pre-optimization cycle-accurate pipeline simulator frozen the same way
for the cyclesim-equivalence suite.  Their usefulness rests entirely
on them never changing, so the ``frozen-oracle`` lint pass verifies
each file's SHA-256 against the value pinned here.  An edit to an
oracle therefore requires an edit to this manifest in the same commit
— an explicit, reviewable act rather than a quiet drive-by change.

Hashes are computed over text with ``\\\\r\\\\n`` normalised to ``\\\\n``, so
checkouts with translated line endings still verify.  Regenerate this
file with ``repro lint --manifest-update`` (see
``docs/STATIC_ANALYSIS.md``), never by hand.
"""

#: Root-relative path of the frozen reference engine.
ORACLE_PATH = "{oracle_path}"

#: SHA-256 of the oracle's (newline-normalised) content.
ORACLE_SHA256 = (
    "{oracle_sha256}"
)

#: Root-relative path of the frozen cycle-simulator reference.
CYCLESIM_ORACLE_PATH = "{cyclesim_oracle_path}"

#: SHA-256 of the cyclesim oracle's (newline-normalised) content.
CYCLESIM_ORACLE_SHA256 = (
    "{cyclesim_oracle_sha256}"
)
'''


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
    """Regenerate ``manifest.py``; returns a summary dict.

    Raises :class:`ManifestUpdateError` when the tree carries
    uncommitted changes beyond the pinned files, or an oracle cannot be
    read.
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

    content = _TEMPLATE.format(
        oracle_path=manifest.ORACLE_PATH,
        oracle_sha256=oracle_sha,
        cyclesim_oracle_path=manifest.CYCLESIM_ORACLE_PATH,
        cyclesim_oracle_sha256=cyclesim_oracle_sha,
    )

    target = os.path.join(root, MANIFEST_PATH)
    changed = True
    try:
        with open(target, encoding="utf-8") as handle:
            changed = handle.read() != content
    except OSError:
        pass
    if changed:
        # One atomic replace: the manifest is never observable half-new.
        fd, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(target), prefix=".manifest-", suffix=".py"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
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
