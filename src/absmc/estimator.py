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
derive from that seed (`lang`), so results are independent of scheduling:
any worker count gives the identical Report, field by field, but elapsed_ms.

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

import functools
import itertools
import math
import os
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


@functools.lru_cache(maxsize=64)
def _master_key(master_seed: int) -> int:
    """A master seed of any sign and size in 64 bits: `lang.fold` of its sign
    (1 when negative), then its magnitude's 64-bit limbs, lowest first."""

    rest = abs(master_seed)
    limbs = [rest >> shift & lang.M64 for shift in range(0, rest.bit_length() or 1, 64)]
    return lang.fold((master_seed < 0, *limbs))


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-based per-trial seed; fixed derivation, documented here:
    ``lang.mix(_master_key(master_seed) ^ index)``."""

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
# Trials shared within a chunk
# ---------------------------------------------------------------------------

# Most nodes, inner and leaf, one draw trie stores; later paths run in full.
_TRIE_CAP = 1024
# Most seeds one lane batch spans: memory follows it, not the trial count.
BLOCK = 256


@dataclass(slots=True)
class _TrieNode:
    """One draw of a trial path: its choice key and the key's salt, and the
    next node or leaf by coin value; ``children`` is None for a `uniform`."""

    key: ChoiceKey
    salt: int
    children: dict[int, "_TrieNode | TrialOutcome"] | None


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
    for their turn.  A seed walked ahead keeps where its walk ended; one
    that ended at a child the trie lacked walks again at its turn, and is
    served if a path added since ends in a leaf (a `uniform` leaves it to
    the scalar engine, so the batches stay as they were).
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

    def walk(self, seed: int) -> _TrieNode | TrialOutcome | None:
        """Where trial ``seed``'s coin path ends: at a leaf, at the node of
        a `uniform` draw, or (None) at a child the trie lacks."""

        node = self.entry.get(None)
        while type(node) is _TrieNode and node.children is not None:
            span = self.restriction.get(node.key[0]) if self.restriction else None
            bits = lang.mix(seed ^ node.salt)
            node = node.children.get(lang.draw_value(bits, lang.Kind.INT, span))
        return node

    def serve(self, seed: int) -> TrialOutcome | None:
        """Trial ``seed``'s outcome from a leaf or a lane batch; None when
        the scalar engine must run it."""

        ahead = self.ends and seed in self.ends
        end = (self.ends.pop(seed) if ahead else None) or self.walk(seed)
        if type(end) is TrialOutcome:
            return end.copy()
        if end is None or ahead and seed not in self.pending:
            return None  # a new path, or a uniform reached by a second walk
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
                coin = not isinstance(value, float)  # a uniform draws a float
                salt = lang.fold((key[0], *key[1]))
                node = children[edge] = _TrieNode(key, salt, {} if coin else None)
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
