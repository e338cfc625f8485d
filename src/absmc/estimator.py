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
field, except for elapsed time.

Each worker runs one contiguous chunk of the trials, whose `DrawTrie`
is the only state they share.  `analyze_trial` asks it first: it serves
coin paths it has seen and runs trials that reach a `uniform` as `lanes`
batches; the scalar engine (`interp`) runs new coin paths and hand-backs.
All three give the same outcome.

Rare-event sharpening: when every hit is known to draw its value at some
generator site inside a sub-range R of the support, sampling that site
conditionally on R and rescaling by Pr(R) estimates the same expectation
with a Pr(R)-times smaller absolute margin.  The containment hypothesis
is the caller's assertion; restricted Reports are flagged accordingly.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from . import lang, lanes
from .interp import ChoiceKey, TrialConfig, TrialOutcome, analyze_trial


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
# Trials shared within a chunk
# ---------------------------------------------------------------------------

# Most nodes, inner and leaf, one draw trie stores; later paths run in full.
_TRIE_CAP = 1024
# Most seeds one lane batch spans: memory follows it, not the trial count.
BLOCK = 256


@dataclass(slots=True)
class _TrieNode:
    """One draw of a trial path: its choice key and the next node or leaf
    by coin value; ``children`` is None for a `uniform`."""

    key: ChoiceKey
    children: dict[int, "_TrieNode | TrialOutcome"] | None


class _LazyRandom:
    """`random.Random(seed)` for coin draws, seeded on its first call: a
    walk that draws nothing, or only pinned coins, never pays for it."""

    __slots__ = ("seed", "rng")

    def __init__(self, seed: int | None):
        self.seed = seed
        self.rng: random.Random | None = None

    def getrandbits(self, k: int) -> int:
        if self.rng is None:
            self.rng = random.Random(self.seed)
        return self.rng.getrandbits(k)


class DrawTrie:
    """The trials of one chunk, of one program under one config and
    restriction: iterating gives the chunk's ``seeds`` in order, and
    `serve` gives a trial's outcome without the scalar engine when it can.

    The trie keys the outcomes of full trials by their coin draws: the
    entry edge (``None``) leads to a trial's first draw, or to its leaf
    when it draws nothing, and a served trial gets a copy of the leaf.
    Past `_TRIE_CAP` nodes nothing new is stored.  The first trial whose
    walk stops at a `uniform` runs as a lane batch with every later one
    among the next `BLOCK` - 1 seeds, whose outcomes wait in ``pending``
    for their turn; a seed walked ahead keeps where its walk ended.
    """

    def __init__(self, program, config=None, restriction=None, seeds=()):
        self.program = program
        self.config = config
        self.restriction = restriction
        self.seeds = iter(seeds)
        self.ahead: deque[int] = deque()  # seeds walked ahead of their turn
        self.ends: dict = {}  # where those walks ended
        self.pending: dict[int, TrialOutcome | None] = {}  # None: handed back
        self.entry: dict[None, _TrieNode | TrialOutcome] = {}
        self.size = 0

    def __iter__(self):
        while self.ahead or (seed := next(self.seeds, None)) is not None:
            yield self.ahead.popleft() if self.ahead else seed

    def walk(self, seed: int | None) -> _TrieNode | TrialOutcome | None:
        """Where trial ``seed``'s coin path ends: at a leaf, at the node of
        a `uniform` draw, or (None) at a child the trie lacks."""

        rng = None
        node = self.entry.get(None)
        while type(node) is _TrieNode and node.children is not None:
            rng = rng or _LazyRandom(seed)
            span = self.restriction.get(node.key[0]) if self.restriction else None
            node = node.children.get(lang.draw_value(rng, lang.Kind.INT, span))
        return node

    def serve(self, seed: int | None) -> TrialOutcome | None:
        """Trial ``seed``'s outcome from a leaf or a lane batch; None when
        the scalar engine must run it."""

        end = self.ends.pop(seed) if self.ends and seed in self.ends else self.walk(seed)
        if type(end) is TrialOutcome:
            return end.copy()
        if end is None:
            return None
        if seed not in self.pending:
            # a batch: this seed and the later ones among the next
            # BLOCK - 1 whose walks stop at a uniform too
            batch = [seed]
            for later in itertools.islice(self.seeds, BLOCK - 1):
                self.ahead.append(later)
                end = self.ends[later] = self.walk(later)
                if type(end) is _TrieNode:
                    batch.append(later)
            outcomes = lanes.run_lanes(self.program, batch, self.config, self.restriction)
            self.pending.update(zip(batch, outcomes))
        return self.pending.pop(seed)

    def insert(self, outcome: TrialOutcome) -> None:
        """Store a full trial's path, up to its first `uniform`, and its
        leaf if the path draws coins only."""

        children, edge = self.entry, None
        for key, value in outcome.table.items():
            node = children.get(edge)
            if node is None:
                if self.size >= _TRIE_CAP:
                    return
                # a coin draws an int, a uniform a float
                node = children[edge] = _TrieNode(key, None if isinstance(value, float) else {})
                self.size += 1
            if node.children is None:
                return
            children, edge = node.children, value
        if edge not in children and self.size < _TRIE_CAP:
            children[edge] = outcome.copy()
            self.size += 1


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
    seeds = (derive_seed(master_seed, index) for index in range(start, stop))
    trials = DrawTrie(program, config, restriction, seeds)
    for seed in trials:
        outcome = analyze_trial(program, seed, config, restriction=restriction, reuse=trials)
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
        # one contiguous chunk per worker: each learns one trie
        tasks = [
            (program, cfg, sites, master_seed, n * k // workers, n * (k + 1) // workers)
            for k in range(workers)
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
