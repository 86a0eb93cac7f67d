"""Fail-soft batch execution of the paper's exhibits.

``python -m repro exhibit all`` used to die on the first exhibit that
raised, losing every later table of a long campaign.  This runner
executes each exhibit in isolation, catches per-exhibit failures
(including an optional per-exhibit wall-clock timeout), and reports a
pass/fail summary at the end — mirroring how large simulation
campaigns handle partial failure: one bad configuration must not sink
the batch.  Each summary line also gives the process's peak RSS once
that exhibit finished, so a long-trace run shows which exhibit set its
memory high-water mark.
"""

import contextlib
import dataclasses
import os
import sys
import time
import traceback

try:
    import resource
except ImportError:  # Windows has no resource module
    resource = None

from repro.experiments import EXHIBITS, run_exhibit
from repro.robustness.errors import ExhibitTimeout
from repro.robustness.supervisor import wall_clock_deadline


@dataclasses.dataclass
class ExhibitOutcome:
    """Result of one exhibit attempt in a fail-soft batch."""

    name: str
    ok: bool
    seconds: float
    exhibit: object = None
    error: str = None
    traceback: str = None
    peak_rss_mb: float = None

    @property
    def status(self):
        """``"ok"`` or ``"FAILED"``, for the summary table."""
        return "ok" if self.ok else "FAILED"


#: Linux's status file for this process; its ``VmHWM`` line is the
#: peak RSS of this process image alone.
_STATUS_PATH = "/proc/self/status"


def vmhwm_kib(status_text):
    """The ``VmHWM`` figure of a ``/proc/<pid>/status`` text, in KiB, or
    None when the text has no such line."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return None


def peak_rss_mb():
    """This process's peak RSS so far, in MB; None without ``resource``.

    Read from ``VmHWM`` where ``/proc`` has it.  Linux's ``ru_maxrss``
    would also count the image the process replaced at exec, so it
    serves only where ``/proc`` does not.
    """
    if resource is None:
        return None
    try:
        with open(_STATUS_PATH) as status:
            kib = vmhwm_kib(status.read())
    except OSError:
        kib = None
    if kib is not None:
        return kib / 1024
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and KiB elsewhere.
    scale = 1 if sys.platform == "darwin" else 1024
    return peak * scale / (1024 * 1024)


@contextlib.contextmanager
def _deadline(seconds, name):
    """Raise :class:`ExhibitTimeout` if the body runs past *seconds*.

    A thin wrapper over the supervisor's SIGALRM-based
    :func:`~repro.robustness.supervisor.wall_clock_deadline` (shared
    with the per-config sweep timeouts), so nested budgets — an
    exhibit deadline around a supervised sweep's config deadline —
    compose instead of clobbering each other.  On platforms without
    ``SIGALRM`` (or off the main thread) the body runs unbounded; the
    batch still fail-softs on ordinary exceptions.
    """
    with wall_clock_deadline(
        seconds,
        lambda budget: ExhibitTimeout(
            f"exhibit exceeded its {budget:g}s wall-clock budget",
            field=name,
        ),
    ):
        yield


def run_exhibits(names=None, timeout=None, progress=None, jobs=None,
                 **kwargs):
    """Run *names* (default: every exhibit) fail-soft.

    Parameters
    ----------
    names:
        Exhibit names; ``None``, an empty list, or the single name
        ``"all"`` runs the full registry in order.  Unknown names are
        recorded as failures, not raised — the rest of the batch still
        runs.
    timeout:
        Optional per-exhibit wall-clock budget in seconds.
    progress:
        Optional callable invoked with each :class:`ExhibitOutcome` as
        it completes (the CLI prints the exhibit or the error here).
    jobs:
        Optional worker-process count for the configuration sweeps
        inside each exhibit (``0`` = one per usable CPU).  Exported as
        ``REPRO_JOBS`` for the duration of the batch so every nested
        :func:`repro.analysis.sweep.sweep` call picks it up; the
        previous value is restored afterwards.
    kwargs:
        Forwarded to each exhibit's ``run`` (e.g. ``trace_len``).

    Returns
    -------
    list of ExhibitOutcome
        One entry per requested exhibit, in request order.
    """
    if not names or list(names) == ["all"]:
        names = list(EXHIBITS)
    saved_jobs = os.environ.get("REPRO_JOBS")
    if jobs is not None:
        os.environ["REPRO_JOBS"] = str(jobs)
    outcomes = []
    try:
        for name in names:
            started = time.monotonic()
            try:
                with _deadline(timeout, name):
                    exhibit = run_exhibit(name, **kwargs)
                outcome = ExhibitOutcome(
                    name=name, ok=True, seconds=time.monotonic() - started,
                    exhibit=exhibit,
                )
            except KeyboardInterrupt:
                raise
            except Exception as error:
                outcome = ExhibitOutcome(
                    name=name, ok=False, seconds=time.monotonic() - started,
                    error=f"{type(error).__name__}: {error}",
                    traceback=traceback.format_exc(),
                )
            outcome.peak_rss_mb = peak_rss_mb()
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
    finally:
        if jobs is not None:
            if saved_jobs is None:
                os.environ.pop("REPRO_JOBS", None)
            else:
                os.environ["REPRO_JOBS"] = saved_jobs
    return outcomes


def format_summary(outcomes):
    """Render the per-exhibit pass/fail summary table."""
    passed = sum(1 for o in outcomes if o.ok)
    lines = [
        f"== exhibit summary: {passed}/{len(outcomes)} passed ==",
    ]
    width = max((len(o.name) for o in outcomes), default=4)
    for outcome in outcomes:
        line = f"  {outcome.name:<{width}}  {outcome.status:<6}" \
               f" {outcome.seconds:7.1f}s"
        if outcome.peak_rss_mb is not None:
            line += f"  peak RSS {outcome.peak_rss_mb:7.1f} MB"
        if outcome.error:
            line += f"  {outcome.error}"
        lines.append(line)
    return "\n".join(lines)
