"""Shared test utilities."""


class ScriptedRandom:
    """random.Random stand-in yielding a fixed script of draws."""

    def __init__(self, uniforms=(), bits=()):
        self._uniforms = list(uniforms)
        self._bits = list(bits)

    def random(self):
        return self._uniforms.pop(0)

    def getrandbits(self, k):
        assert k == 1
        return self._bits.pop(0)


def summary(out):
    """What two engines' TrialOutcomes must agree on: the draw table in
    order, and the environment as rendered (None when aborted)."""

    env = out.env and out.env.render()
    return out.hit, out.steps, out.widened_loops, out.aborted, list(out.table.items()), env
