"""Shared test utilities."""

import numpy as np

from absmc import lanes, lang
from absmc.interp import TrialConfig, TrialOutcome
from absmc.intervals import AbstractEnv, Interval
from absmc.lang import Kind

INF = float("inf")


def summary(out):
    """What two engines' TrialOutcomes must agree on: the draw table in
    order, and the environment as rendered (None when aborted)."""

    env = out.env and out.env.render()
    return out.hit, out.steps, out.widened_loops, out.aborted, list(out.table.items()), env


class RecordingLanes(lanes._Lanes):
    """A lane block that records each draw in ``draws`` as its generator,
    the iteration word the lanes share, the mask of lanes that drew and
    the values it gave them (0 on the other lanes)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.draws = []

    def draw(self, gen, mask):
        values = super().draw(gen, mask)
        self.draws.append((gen, tuple(self.word), mask & self.live, values[0]))
        return values


def _intervals(kind: Kind, lo, hi) -> list[Interval]:
    """The `Interval` of each lane: one object for every lane when all
    their bounds agree bit for bit (so the sign of a zero is kept)."""

    bits_lo, bits_hi = lo.view(np.int64), hi.view(np.int64)
    if (bits_lo == bits_lo[0]).all() and (bits_hi == bits_hi[0]).all():
        return [_interval(kind, lo[0].item(), hi[0].item())] * len(lo)
    return [_interval(kind, a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def lane_values(kind: Kind, value, n: int) -> list[Interval]:
    """The `Interval` of each of ``n`` lanes of one of a lane environment's
    values: a shared `Interval`, or bounds on every lane."""

    if type(value) is Interval:
        return [value] * n
    return _intervals(kind, *np.broadcast_to(value, (2, n)))


def _interval(kind: Kind, lo: float, hi: float) -> Interval:
    if lo > hi:
        return Interval.bottom(kind)
    if kind is Kind.INT:  # finite INT bounds are Python ints, as in `intervals`
        lo = int(lo) if lo != -INF else lo
        hi = int(hi) if hi != INF else hi
    return Interval(kind, lo, hi)


def run_lanes(program, seeds, config=None, restriction=None):
    """The outcome of the trial of each seed run as one lane block, as
    `interp.analyze_trial` gives it, or None for a lane handed back to the
    scalar engine."""

    array = np.array([seed & lang.M64 for seed in seeds], dtype=np.uint64)
    batch = RecordingLanes(program, array, config or TrialConfig(), restriction)
    env, hits = batch.run()
    tables: list[dict] = [{} for _ in seeds]
    for gen, word, mask, values in batch.draws:
        drew = np.flatnonzero(mask)
        if gen.kind is Kind.INT:  # a coin's table value is an int, as in the scalar engine
            values = values.astype(np.int64)
        for i, value in zip(drew.tolist(), values[drew].tolist()):
            tables[i][gen.site, word] = value
    names = list(batch.kinds)
    columns = [lane_values(batch.kinds[x], value, len(seeds)) for x, value in zip(names, env.values)]
    rows = zip(
        tables, zip(*columns), env.reach.tolist(), hits.tolist(), batch.steps.tolist(),
        batch.widened.tolist(), batch.aborted.tolist(), batch.handed_back.tolist(),
    )
    out: list[TrialOutcome | None] = []
    for table, intervals, reach, hit, steps, widened, aborted, handed_back in rows:
        if handed_back:
            out.append(None)
            continue
        final = None if aborted else AbstractEnv(dict(zip(names, intervals)) if reach else None)
        out.append(TrialOutcome(int(hit), final, table, widened, aborted, steps))
    return out
