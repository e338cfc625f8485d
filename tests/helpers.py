"""Shared test utilities."""

from absmc.lang import generator_sites


def pinned(program, values):
    """A draw table for `analyze_trial(pinned=)`: ``values`` for the
    program's generators outside loops, in source order."""

    return {(g.site, ()): v for g, v in zip(generator_sites(program), values)}


def summary(out):
    """What two engines' TrialOutcomes must agree on: the draw table in
    order, and the environment as rendered (None when aborted)."""

    env = out.env and out.env.render()
    return out.hit, out.steps, out.widened_loops, out.aborted, list(out.table.items()), env
