"""Outside-in layer tracing: wrap module attributes, time the spans.

`Tracer` replaces module attributes (for example `interp.filter_env`)
with wrappers that time each call and charge it to the enclosing span,
so a span's self time is its duration minus the time of the wrapped
spans it caused.  Everything is kept in memory as per-name totals plus
one record per trial; nothing under `src/` changes.  Leaving the `with`
block restores every original attribute and checks that it did.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class TrialRecord:
    seconds: float
    steps: int
    widened: bool
    aborted: bool


@dataclass
class Tracer:
    """Wraps ``(module, attribute, span name)`` targets while active.

    The span named "trial" marks one trial: its duration and the
    TrialOutcome it returns are recorded per trial.
    """

    targets: list[tuple[object, str, str]]
    totals: dict[str, SpanTotals] = field(default_factory=lambda: defaultdict(SpanTotals))
    trials: list[TrialRecord] = field(default_factory=list)
    restored: bool = False
    _stack: list[list[float]] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        stack, totals, trials = self._stack, self.totals, self.trials
        is_trial = name == "trial"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                span = totals[name]
                span.calls += 1
                span.total_s += seconds
                span.self_s += seconds - children[0]
            if is_trial:
                trials.append(
                    TrialRecord(seconds, result.steps, result.widened_loops > 0, result.aborted)
                )
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, name in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self.restored = all(getattr(m, a) is o for m, a, o in self._saved)
        self._saved.clear()
