"""Full-reproduction report generation.

``build_report`` runs every exhibit (and optionally every ablation) and
renders one self-contained markdown document: the regenerated tables,
their notes, and the run configuration — the machine-written companion
to the hand-written analysis in EXPERIMENTS.md.

CLI: ``python -m repro report -o REPORT.md``.
"""

import time

from repro.experiments import EXHIBITS, run_exhibit
from repro.experiments.common import default_trace_len


def _exhibit_markdown(exhibit):
    lines = [f"## {exhibit.name}: {exhibit.title}", ""]
    for title, headers, rows in exhibit.tables:
        if title:
            lines.append(f"**{title}**")
            lines.append("")
        lines.append("| " + " | ".join(str(h) for h in headers) + " |")
        lines.append("|" + "---|" * len(headers))
        for row in rows:
            cells = []
            for cell in row:
                if cell is None:
                    cells.append("")
                elif isinstance(cell, float):
                    cells.append(format(cell, exhibit.float_format))
                else:
                    cells.append(str(cell))
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    if exhibit.notes:
        lines.append("Notes:")
        lines.extend(f"* {note}" for note in exhibit.notes)
        lines.append("")
    return "\n".join(lines)


def build_report(exhibit_names=None, include_ablations=False,
                 trace_len=None, progress=None):
    """Run exhibits (and optionally ablations) and return markdown text.

    *progress*, if given, is called with each exhibit name as it
    completes.
    """
    names = list(exhibit_names or EXHIBITS)
    sections = []
    timings = []
    for name in names:
        started = time.monotonic()
        exhibit = run_exhibit(name, trace_len=trace_len)
        timings.append((name, time.monotonic() - started))
        sections.append(_exhibit_markdown(exhibit))
        if progress is not None:
            progress(name)
    if include_ablations:
        from repro.experiments.ablations import ABLATIONS, run_ablation

        for name in ABLATIONS:
            started = time.monotonic()
            exhibit = run_ablation(name, trace_len=trace_len)
            timings.append((f"ablation:{name}", time.monotonic() - started))
            sections.append(_exhibit_markdown(exhibit))
            if progress is not None:
                progress(name)

    header = [
        "# Reproduction report",
        "",
        "Machine-generated by `repro.experiments.report`; compare against",
        "the hand-written analysis in EXPERIMENTS.md.",
        "",
        f"* trace length: {trace_len or default_trace_len()} instructions"
        " per workload",
        f"* exhibits: {', '.join(name for name, _ in timings)}",
        f"* total runtime: {sum(t for _, t in timings):.0f}s",
        "",
    ]
    return "\n".join(header) + "\n" + "\n".join(sections)


def write_report(path, **kwargs):
    """Build a report and write it to *path* atomically; returns the text.

    The report is written via write-temp-then-rename so an interrupted
    run never leaves a truncated report at *path*.
    """
    from repro.robustness.atomic import atomic_write_text

    text = build_report(**kwargs)
    atomic_write_text(path, text)
    return text
