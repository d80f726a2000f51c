"""Live sweep progress reporting.

:class:`ProgressLine` is a :data:`~repro.evaluation.parallel.ProgressCallback`
that repaints one stderr status line per settled sweep task::

    figure7  12/40 (30%)  2.1 rows/s  eta 13s  [sb2-128]

It writes to stderr (never stdout — sweeps pipe their tables) and only
uses carriage-return repainting when the stream is a TTY; on a plain
pipe each update is its own line so CI logs stay readable.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

__all__ = ["ProgressLine"]


def _format_eta(seconds: float) -> str:
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressLine:
    """Render sweep progress to ``stream`` as tasks complete.

    Pass an instance as the ``progress=`` argument of
    :func:`~repro.evaluation.experiments.run_sweep`.  The callable
    contract is ``(done, total, task, outcome)``; the rate/ETA estimate
    uses wall time since construction, so build the instance just before
    the sweep starts.
    """

    def __init__(self, label: str = "sweep",
                 stream: Optional[TextIO] = None) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self._start = time.monotonic()
        self._last_len = 0

    def __call__(self, done: int, total: int, task, outcome) -> None:
        elapsed = time.monotonic() - self._start
        rate = done / elapsed if elapsed > 0 else 0.0
        pct = 100.0 * done / total if total else 100.0
        line = f"{self.label}  {done}/{total} ({pct:.0f}%)"
        if rate > 0:
            line += f"  {rate:.1f} rows/s"
            if done < total:
                line += f"  eta {_format_eta((total - done) / rate)}"
        line += f"  [{task.label}{'' if outcome.ok else ' FAILED'}]"
        self._write(line, final=done >= total)

    def _write(self, line: str, final: bool) -> None:
        stream = self.stream
        if stream.isatty():
            # Repaint in place, blanking any leftover tail.
            pad = " " * max(0, self._last_len - len(line))
            stream.write("\r" + line + pad)
            if final:
                stream.write("\n")
            self._last_len = len(line)
        else:
            stream.write(line + "\n")
        stream.flush()
