"""Closed-form Gronwall envelopes for two-component differential inequalities.

``GronwallEnvelope`` covers nonnegative absolutely continuous pairs (a, b)
obeying the differential inequalities

    a' <= b,
    b' <= lambda (-c b + C a + d),

with C >= 1 and damping ratio c >= 1.  The closed forms returned by
:func:`envelope_a` and :func:`envelope_b`,

    a(t) <= a0 e^{Ct} + (d/C + b0/(c lambda + C)) (e^{Ct} - e^{-c lambda t}),
    b(t) <= b0 e^{-c lambda t}
            + C (a0 + b0/(c lambda + C) + 2 d) (e^{Ct} - e^{-c lambda t}),

dominate every such pair.  For c < 1 the expressions remain computable but
the guarantee is lost once lambda (1 - c) > C: the comparison system

    a' = b,   b' = lambda (-c b + C a + d)

then has a growing mode faster than e^{Ct}.  Check
``GronwallEnvelope.guarantees_domination`` before trusting the bound.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError


@dataclass(frozen=True)
class GronwallEnvelope:
    """Constants of the two-component comparison system.

    C is the growth constant coupling a back into b, c the dimensionless
    damping ratio, lam the relaxation rate, d a constant forcing, and
    (a0, b0) the initial data the envelopes are seeded with.
    """

    C: float
    c: float
    lam: float
    d: float = 0.0
    a0: float = 0.0
    b0: float = 0.0

    def __post_init__(self):
        # sign constraints are hypotheses of the estimate, not mere hygiene
        if not self.C >= 1.0:
            raise AssumptionError(f"growth constant C must be >= 1, got {self.C}")
        if not self.c > 0.0:
            raise AssumptionError(f"damping ratio c must be positive, got {self.c}")
        if not self.lam > 0.0:
            raise AssumptionError(f"relaxation rate lam must be positive, got {self.lam}")
        if self.d < 0.0 or self.a0 < 0.0 or self.b0 < 0.0:
            raise AssumptionError("d, a0 and b0 must be nonnegative")

    @property
    def guarantees_domination(self) -> bool:
        """True when the closed forms provably dominate the comparison system.

        c >= 1 keeps the system's growing mode at or below rate C for every
        lam; below that the mode rate approaches C/c as lam grows and the
        e^{Ct} envelopes are eventually overtaken.
        """
        return self.c >= 1.0


def _split_exponentials(env: GronwallEnvelope, t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be nonnegative")
    return t, np.exp(env.C * t), np.exp(-env.c * env.lam * t)


def envelope_a(env: GronwallEnvelope, t):
    """Upper envelope for the slowly varying component a at time(s) t."""
    t, grow, decay = _split_exponentials(env, t)
    out = env.a0 * grow
    out = out + (env.d / env.C + env.b0 / (env.c * env.lam + env.C)) * (grow - decay)
    return float(out) if out.ndim == 0 else out


def envelope_b(env: GronwallEnvelope, t):
    """Upper envelope for the damped component b at time(s) t."""
    t, grow, decay = _split_exponentials(env, t)
    coeff = env.C * (env.a0 + env.b0 / (env.c * env.lam + env.C) + 2.0 * env.d)
    out = env.b0 * decay + coeff * (grow - decay)
    return float(out) if out.ndim == 0 else out


def comparison_system(env: GronwallEnvelope):
    """Right-hand side f(t, y) of the extremal system a' = b, b' = lam(-cb + Ca + d).

    Integrating this from (a0, b0) gives the worst admissible trajectory;
    every pair satisfying the differential inequalities stays below it
    componentwise, so it is the natural cross-check for the closed forms.
    """

    def rhs(t, y):
        a, b = y
        return (b, env.lam * (-env.c * b + env.C * a + env.d))

    return rhs
