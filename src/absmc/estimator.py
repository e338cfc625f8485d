"""Statistical driver: many trials, one published bound.

The analyzer runs n independent trials and reports the experimental hit
rate p_hat together with the Chernoff-Hoeffding upper bound

    p_prime = min(1, p_hat + sqrt(ln(1/epsilon) / (2 n)))

which exceeds the true worst-case outcome probability with probability
at least 1 - epsilon, because Pr[E[V] >= mean + t] <= exp(-2 n t^2) for
any [0,1]-valued V.  Inverting the bound gives the trial count needed
for a target margin t: n = ceil(ln(1/epsilon) / (2 t^2)).

Per-trial seeds derive from the master seed by a counter-based split
(SHA-256 of "master:index"), so results are independent of scheduling:
a run with any worker count produces the identical Report, field by
field, except for elapsed time.  A worker runs its chunk of trials in
blocks of `lanes.BLOCK`: each trial still goes through `analyze_trial`,
which serves it from the chunk's draw trie, runs it as one lane of the
block's `lanes.LaneBlock` when it reaches a `uniform` draw, or runs it
on the scalar engine; all three give the same outcome.

Rare-event sharpening: when every hit is known to draw its value at some
generator site inside a sub-range R of the support, sampling that site
conditionally on R and rescaling by Pr(R) estimates the same expectation
with a Pr(R)-times smaller absolute margin.  The containment hypothesis
is the caller's assertion; restricted Reports are flagged accordingly.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from . import lang
from .interp import DrawTrie, TrialConfig, analyze_trial
from .lanes import BLOCK, LaneBlock


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


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-based per-trial seed; fixed derivation, documented here:
    the first 8 bytes of SHA-256("{master}:{index}") as a big-endian
    integer."""

    digest = hashlib.sha256(f"{master_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


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


def _trial_chunk(args) -> tuple[int, int, int]:
    program, config, restriction, master_seed, start, stop = args
    hits = widened = aborted = 0
    # coin paths, shared by this chunk's trials only
    trie = DrawTrie()
    for lo in range(start, stop, BLOCK):
        seeds = [derive_seed(master_seed, index) for index in range(lo, min(lo + BLOCK, stop))]
        # the block's trials that reach a uniform draw, run as lanes
        block = LaneBlock(program, config, restriction, seeds, trie)
        for seed in seeds:
            outcome = analyze_trial(
                program, seed, config, restriction=restriction, trie=trie, lanes=block
            )
            hits += outcome.hit
            widened += outcome.widened_loops > 0
            aborted += outcome.aborted
    return hits, widened, aborted


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

    if n < 1:
        raise ValueError("n must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    t = hoeffding_margin(n, epsilon)
    cfg = config or TrialConfig()
    sites = restriction.sites if restriction is not None else None
    workers = min(jobs, os.cpu_count() or 1)
    started = time.perf_counter()
    if workers == 1 or n < 2 * workers:
        hits, widened, aborted = _trial_chunk((program, cfg, sites, master_seed, 0, n))
    else:
        chunk = max(1, -(-n // (workers * 4)))
        tasks = [
            (program, cfg, sites, master_seed, lo, min(lo + chunk, n))
            for lo in range(0, n, chunk)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits, widened, aborted = map(sum, zip(*pool.map(_trial_chunk, tasks)))
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
