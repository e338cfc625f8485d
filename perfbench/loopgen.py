"""Seeded generator of loop-heavy programs for the `loops` workload.

Every generated program drives each trial through the interval fixpoint
(join, widen, narrow): its loop guard either depends on an unconstrained
input, or stays definitely true past the default unroll limit (64), or
the loop nests another loop with an `if` in its body.  Family k is a
loop variant of corpus figure k, so per-family rates line up with the
corpus rows `trials_per_s.fig1` ... `fig4`.

The seed draws only constants that leave the work per trial and per
oracle sample unchanged (outcome thresholds, input ranges that do not
change the oracle grid), so the measured rates do not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import random

FAMILIES = ("fig1", "fig2", "fig3", "fig4")


def _fig1(rng: random.Random) -> str:
    # coin counter with an unconstrained trip count: the guard is never
    # definite, so the first iteration already enters the fixpoint
    goal = rng.randint(52, 58)
    return f"""int x, i, n;
know (x>=0 && x<=2);
know (n>=0 && n<=100);
i=0;
while (i < n)
{{
  x += coin_flip();
  i++;
}}
know (x>={goal});
"""


def _fig2(rng: random.Random) -> str:
    # uniform sums in a loop that runs past the unroll limit
    goal = rng.randint(82, 88)
    return f"""double x, i;
know (x>=0. && x<=1.);
i=0.;
while (i < 170.)
{{
  x += uniform();
  i += 1.0;
}}
know (x<{goal}.);
"""


def _fig3(rng: random.Random) -> str:
    # fig3 with a real-valued unconstrained bound: one definite
    # iteration is unrolled, the rest is abstracted
    goal = rng.randint(5, 6)
    return f"""double x, i, n;
know (x<0.0 && x>0.0-1.0);
know (n>=1.0 && n<=10.0);
i=0.;
while (i < n)
{{
  x += uniform();
  i += 1.0;
}}
know (x>={goal}.0);
"""


def _fig4(rng: random.Random) -> str:
    # fig4's branch inside an inner loop, nested in an outer loop whose
    # trip count is unconstrained
    lo_x = rng.choice(("0.", "0.02", "0.05"))
    return f"""int k, m, j;
double x, z;
know (x>={lo_x} && x<=0.1);
know (m>=0 && m<=5);
k=0;
while (k < m)
{{
  j=0;
  while (j < 3)
  {{
    z=uniform(); z+=z;
    if (x+z<2.)
    {{
      x += uniform();
    }} else
    {{
      x -= uniform();
    }}
    j++;
  }}
  k++;
}}
know (x>0.9 && x<1.1);
"""


_MAKERS = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4}


def generate(seed: int) -> list[tuple[str, str, str]]:
    """(name, family, source) triples, two per family, a pure function of
    ``seed``."""

    rng = random.Random(f"loops:{seed}")
    return [
        (f"{family}.loop{k}", family, _MAKERS[family](rng))
        for family in FAMILIES
        for k in range(2)
    ]


# The generator must give these programs for CHECK_SEED in every
# interpreter; a change to it made on purpose updates the digest.
CHECK_SEED = 1
CHECK_DIGEST = "c3baac5bb4acd7c8b335c588f7b603a0a12c511f156fd1a07b2ffd116c1025af"


def digest(seed: int) -> str:
    return hashlib.sha256(json.dumps(generate(seed)).encode()).hexdigest()
