"""Statistical driver: many trials, one published bound.

The analyzer runs n independent trials and reports the experimental hit
rate p_hat together with the Chernoff-Hoeffding upper bound

    p_prime = min(1, p_hat + sqrt(ln(1/epsilon) / (2 n)))

which exceeds the true worst-case outcome probability with probability
at least 1 - epsilon, because Pr[E[V] >= mean + t] <= exp(-2 n t^2) for
any [0,1]-valued V.  Inverting the bound gives the trial count needed
for a target margin t: n = ceil(ln(1/epsilon) / (2 t^2)).

Trial i's seed is ``lang.mix(key ^ i)``, the master seed's key being
`lang.fold` of its sign and 64-bit limbs (`derive_seed`), and its draws
derive from that seed (`lang.draw`), so results are independent of
scheduling: any worker count gives the identical Report, field by field,
but elapsed_ms.  A run has at most 2**64 trials, one per seed.

A run needs three counts: hits, widened trials and aborted trials.  Its
first trial is a probe on the scalar engine (`interp`).  A probe that
draws nothing stands for every trial, since a trial is a pure function
of its draws.  Otherwise the other trials run as `lanes` blocks, whose
hit, widened and aborted arrays the run sums; the scalar engine runs the
lanes a block hands back.  Both engines give the same outcome.

The probe and the first block run in the calling process, the block
timed.  The trials left go to a process pool, one contiguous range per
worker, only when their in-process time scaled from the first block's
time per lane, T, exceeds the pool's fixed cost `POOL_COST_S` plus T
shared among the workers; else they run in-process too.  Small runs
thus start no pool.

Rare-event sharpening: when every hit is known to draw its value at some
generator site inside a sub-range R of the support, sampling that site
conditionally on R and rescaling by Pr(R) estimates the same expectation
with a Pr(R)-times smaller absolute margin.  The containment hypothesis
is the caller's assertion; restricted Reports are flagged accordingly.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import lang, lanes
from .interp import TrialConfig, analyze_trial


def _log_reciprocal(epsilon: float) -> float:
    """ln(1/epsilon); -ln(epsilon) only once 1/epsilon overflows, because
    the two differ in the last bit for some epsilon, 0.01 among them."""

    reciprocal = 1.0 / epsilon
    return math.log(reciprocal) if reciprocal < math.inf else -math.log(epsilon)


def hoeffding_margin(n: int, epsilon: float) -> float:
    """t such that n trials underestimate the mean by more than t with
    probability at most epsilon."""

    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    return math.sqrt(_log_reciprocal(epsilon) / (2.0 * n))


def plan_trials(t: float, epsilon: float) -> int:
    """Smallest n with margin at most t at confidence 1 - epsilon."""

    if not 0.0 < t <= 1.0:
        raise ValueError("t must be in (0, 1]")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    n = _log_reciprocal(epsilon) / (2.0 * t * t) if t * t else math.inf  # t * t may underflow
    if not math.isfinite(n):
        raise ValueError(f"the trial count for t = {t!r} is too large to represent")
    return max(1, math.ceil(n))


@functools.lru_cache(maxsize=64)
def _master_key(master_seed: int) -> int:
    """A master seed of any sign and size in 64 bits: `lang.fold` of its sign
    (1 when negative), then its magnitude's 64-bit limbs, lowest first."""

    rest = abs(master_seed)
    limbs = [rest >> shift & lang.M64 for shift in range(0, rest.bit_length() or 1, 64)]
    return lang.fold((master_seed < 0, *limbs))


def derive_seed(master_seed: int, index):
    """Counter-based per-trial seed; fixed derivation, documented here:
    ``lang.mix(_master_key(master_seed) ^ index)``, index an int or a
    lane block's uint64 array."""

    return lang.mix(_master_key(master_seed) ^ index)


# ---------------------------------------------------------------------------
# Restriction of generator sites
# ---------------------------------------------------------------------------


class RestrictionError(Exception):
    """Invalid restriction specification."""


@dataclass(frozen=True)
class RestrictionSpec:
    """Sub-ranges for generator sites outside loops.

    ``prob`` is the probability that unrestricted sampling lands inside
    every sub-range; the caller asserts that all outcome-reaching draws
    do.  ``sites`` maps site identifiers to inclusive (lo, hi) ranges.
    """

    sites: dict[int, tuple[float, float]]
    prob: float

    @classmethod
    def by_ordinal(
        cls, program: lang.Program, entries: dict[int, tuple[float, float]]
    ) -> "RestrictionSpec":
        """Build from 1-based generator ordinals in source order."""

        gens = {g.ordinal: g for g in lang.generator_sites(program)}
        sites: dict[int, tuple[float, float]] = {}
        prob = 1.0
        for ordinal, (lo, hi) in entries.items():
            g = gens.get(ordinal)
            if g is None:
                raise RestrictionError(f"no generator with ordinal {ordinal}")
            if g.inside_loop:
                raise RestrictionError(
                    f"generator {ordinal} sits inside a loop and may be"
                    " abstracted during fixpoints; it cannot be restricted"
                )
            if lo > hi:
                raise RestrictionError(f"empty range for generator {ordinal}")
            if g.coin:
                allowed = [v for v in (0, 1) if lo <= v <= hi]
                if not allowed:
                    raise RestrictionError(
                        f"range for coin_flip generator {ordinal} excludes both 0 and 1"
                    )
                prob *= len(allowed) / 2.0
            else:
                lo, hi = max(0.0, float(lo)), min(1.0, float(hi))
                if lo > hi:
                    raise RestrictionError(
                        f"range for uniform generator {ordinal} lies outside [0, 1]"
                    )
                if hi == lo:
                    raise RestrictionError(
                        f"range for uniform generator {ordinal} has measure zero"
                    )
                prob *= hi - lo
            sites[g.site] = (float(lo), float(hi))
        if not 0.0 < prob <= 1.0:
            raise RestrictionError("restriction probability must be in (0, 1]")
        return cls(sites, prob)


# ---------------------------------------------------------------------------
# Reports and the trial loop
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """Published result of a batch of trials."""

    program: str
    n: int
    hits: int
    p_hat: float
    epsilon: float
    margin: float
    p_prime: float
    seed: int
    jobs: int
    elapsed_ms: float
    config: dict
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


# Most seeds one lane block spans, whatever the chunk's length.  A block
# holds each live environment's mask and the bounds of each variable that
# differs between its lanes, differing variables x BLOCK x 16 plus BLOCK
# bytes, and its per-lane counters; it keeps nothing per draw.
BLOCK = 4096

# A process pool's fixed cost in seconds: start-up, handing each worker
# its range, and teardown.  Measured on a 2-CPU VM (Python 3.11.7, fork
# start) as t(jobs=2) - t(jobs=1)/2 of `run` with every run pooled: 20-26
# ms on fig1, fig2 and fig3 at 20,000-200,000 trials, one size reading 57
# ms (median of 7 master seeds each).
POOL_COST_S = 0.03


def _lane_counts(args) -> tuple[int, int, int]:
    """Hits, widened trials and aborted trials among trials [start, stop),
    run as lane blocks of `BLOCK` seeds; the scalar engine runs the lanes a
    block hands back."""

    program, config, restriction, master_seed, start, stop = args
    hits = widened = aborted = 0
    for first in range(start, stop, BLOCK):
        indices = np.arange(first, min(first + BLOCK, stop), dtype=np.uint64)
        seeds = derive_seed(master_seed, indices)
        block = lanes._Lanes(program, seeds, config, restriction)
        _, hit = block.run()  # aborted lanes among the hits
        back = block.handed_back
        hits += np.count_nonzero(hit)
        widened += np.count_nonzero((block.widened > 0) & ~back)
        aborted += np.count_nonzero(block.aborted)
        for seed in seeds[back].tolist():
            outcome = analyze_trial(program, seed, config, restriction=restriction)
            hits += outcome.hit
            widened += outcome.widened_loops > 0
            aborted += outcome.aborted
    return int(hits), int(widened), int(aborted)


def _trial_chunk(args, workers: int = 1) -> tuple[int, int, int]:
    """Hits, widened trials and aborted trials among trials [start, stop):
    a probe on the scalar engine, then lane blocks of `BLOCK` seeds.

    The probe and the first block run here.  The other trials run in a
    pool of ``workers`` processes only when that pays: when their time in
    this process, the first block's time per lane times their number,
    exceeds `POOL_COST_S` plus that time shared among the workers."""

    program, config, restriction, master_seed, start, stop = args
    probe = analyze_trial(program, derive_seed(master_seed, start), config, restriction=restriction)
    hits, widened, aborted = probe.hit, probe.widened_loops > 0, probe.aborted
    if not probe.table:
        # no draw, so no branch depended on one: every trial is the probe
        n = stop - start
        return hits * n, widened * n, aborted * n
    first = min(stop, start + 1 + BLOCK)
    started = time.perf_counter()
    counts = [(hits, widened, aborted), _lane_counts((*args[:4], start + 1, first))]
    # an empty first block (a chunk of one trial) leaves nothing to run
    lanes_run = first - start - 1
    rest = (time.perf_counter() - started) * (stop - first) / lanes_run if lanes_run else 0.0
    if workers > 1 and rest > POOL_COST_S * workers / (workers - 1):
        from concurrent.futures import ProcessPoolExecutor

        # one contiguous range of [first, stop) per worker, none probed again
        bounds = [first + (stop - first) * k // workers for k in range(workers + 1)]
        tasks = [(*args[:4], lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts.extend(pool.map(_lane_counts, tasks))
    else:
        counts.append(_lane_counts((*args[:4], first, stop)))
    return tuple(int(sum(c)) for c in zip(*counts))


def check_run(n: int, epsilon: float, jobs: int) -> float:
    """The margin of a run of n trials at ``epsilon``; ValueError for an
    ``n``, ``epsilon`` or ``jobs`` that `run` rejects.  Past 2**64 trials,
    trial i + 2**64 would reuse trial i's seed and break independence."""

    t = hoeffding_margin(n, epsilon)
    if n > 2**64:
        raise ValueError("n must be <= 2**64, the number of distinct trial seeds")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return t


def run(
    program: lang.Program,
    n: int,
    epsilon: float,
    master_seed: int = 0,
    jobs: int = 1,
    config: TrialConfig | None = None,
    *,
    program_name: str | None = None,
    restriction: RestrictionSpec | None = None,
) -> Report:
    """Run n trials and assemble the Report.  Identical output for any
    ``jobs`` value (except elapsed_ms); at most one worker process runs
    per CPU, whatever ``jobs`` asks for."""

    t = check_run(n, epsilon, jobs)
    cfg = config or TrialConfig()
    sites = restriction.sites if restriction is not None else None
    workers = min(jobs, os.cpu_count() or 1)
    started = time.perf_counter()
    hits, widened, aborted = _trial_chunk((program, cfg, sites, master_seed, 0, n), workers)
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    raw_mean = hits / n
    config_echo = asdict(cfg)
    warnings: list[str] = []
    if restriction is None:
        p_hat = raw_mean
        p_prime = min(1.0, p_hat + t)
    else:
        p_hat = restriction.prob * raw_mean
        p_prime = min(1.0, restriction.prob * (raw_mean + t))
        config_echo["restriction"] = {str(s): list(r) for s, r in restriction.sites.items()}
        config_echo["restriction_prob"] = restriction.prob
        warnings.append(
            "restricted sampling: sound only under the asserted containment"
            " of all outcome-reaching draws in the restriction"
        )
    if widened:
        warnings.append(f"widening engaged in {widened} of {n} trials")
    if aborted:
        warnings.append(f"{aborted} trial(s) exceeded the step budget and count as hits")
    return Report(
        program=program_name or program.name,
        n=n,
        hits=hits,
        p_hat=p_hat,
        epsilon=epsilon,
        margin=t,
        p_prime=p_prime,
        seed=master_seed,
        jobs=jobs,
        elapsed_ms=elapsed_ms,
        config=config_echo,
        warnings=warnings,
    )
