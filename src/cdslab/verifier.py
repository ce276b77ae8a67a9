"""Correctness and security estimation for protocol objects.

Classical protocols are verified by exact rational enumeration of their
message distributions.  Security is one fold over simulator cells
(:func:`simulator_fold`): a cell holds the distributions that must share
one simulator, those of one hiding input over its secrets for a CDS and
those of one value class for a PSM.  Its simulator is the Chebyshev centre
minimising the worst-case L1 distance to them: the one distribution, the
midpoint of two, or a linear program's solution for more.  A report row's
``simulator_distance`` is the largest L1 distance from its distributions
to its cell's centre, and delta the largest distance or radius of any cell.

Quantum protocols are certified per input through the three measurements
every CDQS shape provides (see :mod:`cdslab.framework`): a dense protocol
takes them at its Choi state, a transcript protocol exactly in rationals.
``decoding_distance`` and ``product_distance`` lower-bound the diamond
distances to the identity and to the constant simulator ``sigma_M =
rho_M``; ``d_Q`` times either upper-bounds it, giving honest two-sided
intervals without an SDP.

Reports carry one diagnostic entry per promise input, merged in
lexicographic input order; ``as_dict`` gives them a fixed JSON schema
(protocol, n, epsilon_hat, delta_hat_lower, delta_hat_upper, inputs,
cost, seed, wall_time_ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .framework import (
    CdsProtocol,
    CostReport,
    PromiseFunction,
    PsmProtocol,
    cds_decode_failure,
    enumerate_message_distribution,
    protocol_cost,
    psm_tally,
    transcript_distribution,
)

#: Default error budgets for pass/fail verdicts.
EPSILON_BUDGET = 0.09
DELTA_BUDGET = 0.09

_ENUMERABLE_PAIRS = 1 << 20


def __getattr__(name):
    """``linprog`` is scipy's, imported on first use: only the simulator LP
    needs ``scipy.optimize``, and importing it costs most of an import of
    this package.  The function is then kept in this module's globals, where
    the LP branch looks it up on every call."""
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linprog

    globals()["linprog"] = linprog
    return linprog


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying one protocol against one promise function."""

    protocol: str
    n: int
    epsilon_hat: float
    delta_hat_lower: float
    delta_hat_upper: float
    inputs: tuple
    cost: CostReport
    seed: Optional[int] = None
    wall_time_ms: Optional[float] = None

    def __post_init__(self):
        for v in (self.epsilon_hat, self.delta_hat_lower, self.delta_hat_upper):
            if not 0.0 <= v <= 2.0:
                raise ValueError(f"estimate {v} outside [0, 2]")
        if self.delta_hat_lower > self.delta_hat_upper + 1e-12:
            raise ValueError("delta interval is inverted")

    @property
    def delta_hat(self) -> float:
        """Point value when the interval is degenerate (classical verifiers)."""
        return self.delta_hat_upper

    def passes(self) -> bool:
        """Verdict against ``EPSILON_BUDGET`` and ``DELTA_BUDGET``; delta is
        judged on the certified (upper) side of its interval."""
        return self.epsilon_hat <= EPSILON_BUDGET and self.delta_hat_upper <= DELTA_BUDGET

    def as_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "epsilon_hat": self.epsilon_hat,
            "delta_hat_lower": self.delta_hat_lower,
            "delta_hat_upper": self.delta_hat_upper,
            "inputs": list(self.inputs),
            "cost": self.cost.as_dict(),
            "seed": self.seed,
            "wall_time_ms": self.wall_time_ms,
        }


# ---------------------------------------------------------------------------
# simulator radii for distributions
# ---------------------------------------------------------------------------

def _l1(a: dict, b: dict) -> Fraction:
    keys = set(a) | set(b)
    return sum((abs(a.get(k, Fraction(0)) - b.get(k, Fraction(0))) for k in keys), Fraction(0))


def chebyshev_radius(dists: Sequence[dict]):
    """``min over Sim of max_i ||Sim - P_i||_1`` over distributions.

    Returns ``(radius, center)``.  One distinct distribution gives radius 0
    exactly; two give the midpoint (optimal for the two-point problem, with
    radius half their L1 distance, also exact); more run a linear program
    over the union support with per-distribution absolute-value slacks.
    """
    distinct = []
    for d in dists:
        if d not in distinct:
            distinct.append(d)
    if not distinct:
        raise ValueError("no distributions given")
    if len(distinct) == 1:
        return Fraction(0), dict(distinct[0])
    if len(distinct) == 2:
        p0, p1 = distinct
        keys = set(p0) | set(p1)
        center = {
            k: (p0.get(k, Fraction(0)) + p1.get(k, Fraction(0))) / 2 for k in keys
        }
        return _l1(p0, p1) / 2, center

    from scipy.sparse import coo_matrix

    support = sorted(set().union(*distinct))
    t_count = len(support)
    m = len(distinct)
    tables = np.array(
        [[float(d.get(k, Fraction(0))) for k in support] for d in distinct]
    )
    # variables: center (t_count), slacks u_{i,j} (m * t_count), radius t
    n_vars = t_count + m * t_count + 1
    rows, cols, vals, rhs = [], [], [], []
    row = 0
    for i in range(m):
        for j in range(t_count):
            u = t_count + i * t_count + j
            # c_j - u_ij <= P_ij   and   -c_j - u_ij <= -P_ij
            rows += [row, row]; cols += [j, u]; vals += [1.0, -1.0]
            rhs.append(tables[i, j]); row += 1
            rows += [row, row]; cols += [j, u]; vals += [-1.0, -1.0]
            rhs.append(-tables[i, j]); row += 1
        # sum_j u_ij - t <= 0
        for j in range(t_count):
            rows.append(row); cols.append(t_count + i * t_count + j); vals.append(1.0)
        rows.append(row); cols.append(n_vars - 1); vals.append(-1.0)
        rhs.append(0.0); row += 1
    a_ub = coo_matrix((vals, (rows, cols)), shape=(row, n_vars))
    a_eq = coo_matrix(
        (np.ones(t_count), (np.zeros(t_count, dtype=int), np.arange(t_count))),
        shape=(1, n_vars),
    )
    c = np.zeros(n_vars)
    c[-1] = 1.0
    solve = globals().get("linprog") or __getattr__("linprog")
    res = solve(
        c, A_ub=a_ub, b_ub=rhs, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * n_vars, method="highs",
    )
    if not res.success:
        raise RuntimeError(f"simulator LP failed: {res.message}")
    center = {k: float(res.x[j]) for j, k in enumerate(support)}
    return float(res.fun), center


def _check_sizes(p, f: PromiseFunction) -> None:
    """Refuse a protocol whose input size differs from the function's."""
    if p.n != f.n:
        raise ValueError(f"protocol has n={p.n} but function {f.name} has n={f.n}")


def simulator_fold(cells) -> float:
    """Set each row's ``simulator_distance`` and return delta, as the module
    docstring states.  A cell lists the ``(report row, distribution)`` pairs
    whose inputs must share one simulator.  An exact (Fraction) radius comes
    with the one distribution or the midpoint of two, each exactly the
    radius from every member, so only an LP centre has distances measured.
    """
    delta = 0.0
    for cell in cells:
        radius, center = chebyshev_radius([dist for _, dist in cell])
        exact = isinstance(radius, Fraction)
        far: dict = {}  # once per distribution object, which members may share
        for row, dist in cell:
            if id(dist) not in far:
                far[id(dist)] = float(radius if exact else _l1(dist, center))
            row["simulator_distance"] = max(row.get("simulator_distance", 0.0), far[id(dist)])
        delta = max(delta, float(radius), *far.values())
    return delta


def _report(p, rows, seed, epsilon, delta_lower, delta_upper) -> VerificationReport:
    """The report of ``p`` from its rows and its worst-case estimates."""
    return VerificationReport(
        protocol=p.construction or "anonymous",
        n=p.n,
        epsilon_hat=float(epsilon),
        delta_hat_lower=float(delta_lower),
        delta_hat_upper=float(delta_upper),
        inputs=tuple(rows),
        cost=protocol_cost(p),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# classical verifiers
# ---------------------------------------------------------------------------

def cds_verify(p: CdsProtocol, f: PromiseFunction, seed: Optional[int] = None) -> VerificationReport:
    """Exact correctness and simulator-radius security for a classical CDS.

    ``epsilon_hat`` is the worst decode-failure probability over disclosing
    inputs and secrets, an exact rational cast to float at the end.  Each
    hiding input is one simulator cell over its secrets' distributions.
    """
    _check_sizes(p, f)
    rows = [{"x": x, "y": y, "value": f.value(x, y)} for x, y in f.promise_pairs()]
    secrets = range(p.secret_alphabet)
    eps = Fraction(0)
    for row in rows:
        if row["value"] == 1:
            worst = max(cds_decode_failure(p, row["x"], row["y"], s) for s in secrets)
            eps = max(eps, worst)
            row["decode_failure"] = float(worst)
    delta = simulator_fold(
        [(row, enumerate_message_distribution(p, row["x"], row["y"], s)) for s in secrets]
        for row in rows if row["value"] == 0
    )
    return _report(p, rows, seed, eps, delta, delta)


def psm_verify(p: PsmProtocol, f: PromiseFunction, seed: Optional[int] = None) -> VerificationReport:
    """Exact verification of a PSM: the simulator may depend only on the value.

    Each value class is one simulator cell over its inputs' distributions.
    An input is enumerated once, and a distribution built once per distinct
    count table, which equal inputs share.
    """
    _check_sizes(p, f)
    eps = Fraction(0)
    rows, classes, tables, dists = [], {}, [], []
    for x, y in f.promise_pairs():
        value = f.value(x, y)
        counts, failure = psm_tally(p, x, y, value)
        eps = max(eps, failure)
        if counts not in tables:
            tables.append(counts)
            dists.append(transcript_distribution(p, counts))
        rows.append({"x": x, "y": y, "value": value})
        classes.setdefault(value, []).append((rows[-1], dists[tables.index(counts)]))
    delta = simulator_fold(cell for _, cell in sorted(classes.items()))
    return _report(p, rows, seed, eps, delta, delta)


# ---------------------------------------------------------------------------
# quantum verifier
# ---------------------------------------------------------------------------

def cdqs_verify(
    p,
    f: PromiseFunction,
    inputs: Optional[Sequence[tuple]] = None,
    seed: Optional[int] = None,
) -> VerificationReport:
    """Channel-level verification of a CDQS protocol.

    Correctness: per disclosing input, ``p.decoding_distance`` (a
    diamond-norm lower bound for the decoded channel against the identity).
    Security: per hiding input, ``p.product_distance`` (a lower bound for
    the diamond distance to the constant simulator).  Each lower value
    ``lo`` comes with the upper bound ``min(2, d_Q * lo)`` in the
    diagnostics.  ``inputs`` defaults to every promise pair, which must be
    explicitly supplied when the domain is too large to enumerate.
    """
    _check_sizes(p, f)
    if inputs is None:
        if 1 << (2 * f.n) > _ENUMERABLE_PAIRS:
            raise ValueError(
                "promise domain too large to enumerate; pass inputs explicitly"
            )
        inputs = list(f.promise_pairs())
    diagnostics = []
    for x, y in sorted(inputs):
        value = f.value(x, y)
        if value is None:
            raise ValueError(f"input ({x}, {y}) is outside the promise")
        if value == 1:
            name, lo = "epsilon", float(p.decoding_distance(x, y))
        else:
            name, lo = "delta", float(p.product_distance(x, y))
        diagnostics.append({
            "x": x, "y": y, "value": value,
            f"{name}_lower": lo, f"{name}_upper": min(2.0, p.d_q * lo),
        })

    def worst(key):
        return max([0.0] + [e[key] for e in diagnostics if key in e])

    return _report(
        p, diagnostics, seed, worst("epsilon_lower"), worst("delta_lower"), worst("delta_upper")
    )


def productness_check(p, f: PromiseFunction) -> list:
    """Mid-protocol witness of the hiding/disclosing separation, per input.

    Hiding inputs must leave the secret side of the entangled pair in
    product with the messages (distance at most the verified delta upper
    bound); disclosing inputs must decode with entanglement fidelity at
    least ``1 - epsilon_hat``.  The bounds come from ``cdqs_verify(p, f)``
    over every promise input.
    """
    _check_sizes(p, f)
    report = cdqs_verify(p, f)
    out = []
    for x, y in ((e["x"], e["y"]) for e in report.inputs):
        if f.value(x, y) == 1:
            fid = float(p.entanglement_fidelity(x, y))
            bound = 1.0 - report.epsilon_hat - 1e-9
            out.append(
                {"x": x, "y": y, "value": 1, "fidelity": fid, "bound": bound,
                 "ok": fid >= bound}
            )
        else:
            gap = float(p.product_distance(x, y))
            bound = report.delta_hat_upper + 1e-9
            out.append(
                {"x": x, "y": y, "value": 0, "distance": gap, "bound": bound,
                 "ok": gap <= bound}
            )
    return out
