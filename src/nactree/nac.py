"""Nested Archimedean copula models and (nearly) exact sampling.

A model is a rooted tree plus one generator per internal node; the copula
of any leaf pair is the Archimedean copula of their LCA's generator.
Sampling follows the recursive outer/inner frailty construction: the root
frailty follows the law whose Laplace transform is the root generator, and
each internal child's frailty is drawn conditionally on its parent's so
that its marginal Laplace transform is the child generator.

Supported families: clayton, gumbel, frank, joe, independence.  Exact
nesting is implemented for same-family parent/child pairs (requiring
theta_parent <= theta_child) and for an independence parent over arbitrary
children (independent blocks).  One step is approximate: a Joe or Frank
inner frailty is a sum of V_parent integer draws, and above `SUM_CUTOFF`
draws the sum is replaced by its heavy-tail stable limit.

Generators are specified by Kendall's tau.  The tau(theta) maps are closed
forms evaluated with numpy and `math` only: Clayton theta/(theta+2) and
Gumbel 1 - 1/theta, inverted exactly; Frank through the Debye function
(Genest 1987) and Joe through its digamma form (Joe 1997), both inverted by
bisection to the last bit.  The Sibuya tail uses `math.lgamma`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .trees import RootedTree, parse_newick, write_newick

CLAYTON = "clayton"
GUMBEL = "gumbel"
FRANK = "frank"
JOE = "joe"
INDEPENDENCE = "independence"
FAMILIES = (CLAYTON, GUMBEL, FRANK, JOE, INDEPENDENCE)

# Joe/Frank inner frailties are sums of V_parent integer draws; above this
# count the sum is replaced by its heavy-tail stable limit.
SUM_CUTOFF = 10_000


class NacError(ValueError):
    """Raised for invalid generator specs or unsupported nestings."""


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #


def _theta_range(family: str):
    if family in (CLAYTON, FRANK):
        return 0.0, math.inf, True  # open lower bound
    if family in (GUMBEL, JOE):
        return 1.0, math.inf, False
    if family == INDEPENDENCE:
        return 1.0, 1.0, False
    raise NacError(f"unknown generator family {family!r}")


def _check_theta(family: str, theta: float):
    lo, hi, open_lo = _theta_range(family)
    ok = (theta > lo if open_lo else theta >= lo) and theta <= hi
    if not (np.isfinite(theta) and ok):
        raise NacError(f"theta={theta} outside the {family} range")


def psi(family: str, theta: float, t):
    """Generator value psi(t) for t >= 0; psi(0)=1, psi(inf)=0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise NacError("psi needs t >= 0")
    if family == CLAYTON:
        return (1.0 + t) ** (-1.0 / theta)
    if family == GUMBEL:
        return np.exp(-(t ** (1.0 / theta)))
    if family == FRANK:
        # 1 - (1-e^-theta) e^-t, written to stay accurate near t = 0
        inner = -np.expm1(-t) + np.exp(-t - theta)
        return -np.log(inner) / theta
    if family == JOE:
        return 1.0 - (-np.expm1(-t)) ** (1.0 / theta)
    if family == INDEPENDENCE:
        return np.exp(-t)
    raise NacError(f"unknown generator family {family!r}")


def psi_inv(family: str, theta: float, u):
    """Generalized inverse of the generator, for u in (0, 1]."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0) or np.any(u > 1):
        raise NacError("psi_inv needs u in (0, 1]")
    if family == CLAYTON:
        return np.expm1(-theta * np.log(u))
    if family == GUMBEL:
        return (-np.log(u)) ** theta
    if family == FRANK:
        # expm1(-theta u)/expm1(-theta) = 1 + exp(-theta) expm1(theta(1-u))
        #                                     / expm1(-theta), stable near u=1
        delta = np.exp(-theta) * np.expm1(theta * (1.0 - u)) / math.expm1(-theta)
        return -np.log1p(delta)
    if family == JOE:
        return -np.log1p(-((1.0 - u) ** theta))
    if family == INDEPENDENCE:
        return -np.log(u)
    raise NacError(f"unknown generator family {family!r}")


# Gauss-Legendre nodes and weights on [-1, 1] for Frank's Debye integral
_LEGENDRE = np.polynomial.legendre.leggauss(16)
# terms of the Joe series summed before its Euler-Maclaurin tail
_JOE_K = np.arange(1000.0)


def _frank_tau(theta: float) -> float:
    # tau = 1 - 4/theta + 4 D1(theta)/theta with the Debye function
    # D1(theta) = (1/theta) int_0^theta t/(e^t - 1) dt (Genest 1987)
    if theta < 0.1:
        # the closed form cancels down to theta/9 here; use its Taylor series
        return (theta / 9.0 - theta ** 3 / 900.0 + theta ** 5 / 52920.0
                - theta ** 7 / 2721600.0)
    if theta <= 2.0:
        x, w = _LEGENDRE
        t = 0.5 * theta * (x + 1.0)
        debye = 0.5 * float(np.dot(w, t / np.expm1(t)))
    else:
        # int_0^theta t/(e^t-1) dt = pi^2/6 - sum_k e^(-k theta) (theta/k + 1/k^2);
        # the first term left out is below e^-40
        k = np.arange(1.0, math.ceil(40.0 / theta) + 1.0)
        tail = float(np.sum(np.exp(-k * theta) * (theta / k + 1.0 / k ** 2)))
        debye = (math.pi ** 2 / 6.0 - tail) / theta
    return 1.0 - 4.0 / theta + 4.0 * debye / theta


def _joe_tau(theta: float) -> float:
    # tau = 1 + 2/(2-theta) (digamma(2) - digamma(1+x)), x = 2/theta (Joe
    # 1997).  The digamma difference over 1 - x is the series
    # S(x) = sum_{k>=0} 1/((k+2)(k+1+x)), so tau = 1 - x S(x) has no 0/0 at
    # theta = 2.  S is summed to K terms plus the midpoint Euler-Maclaurin
    # tail 1/N + (c^2/3 - 1/12)/N^3, N = K + 1 + x/2, c = (1-x)/2, whose
    # error is O(N^-5).
    x = 2.0 / theta
    n = _JOE_K.size + 1.0 + 0.5 * x
    c2 = 0.25 * (1.0 - x) ** 2
    s = (float(np.sum(1.0 / ((_JOE_K + 2.0) * (_JOE_K + 1.0 + x))))
         + 1.0 / n + (c2 / 3.0 - 1.0 / 12.0) / n ** 3)
    return 1.0 - x * s


_TAU_FORMS = {CLAYTON: lambda theta: theta / (theta + 2.0),
              GUMBEL: lambda theta: 1.0 - 1.0 / theta,
              FRANK: _frank_tau,
              JOE: _joe_tau,
              INDEPENDENCE: lambda theta: 0.0}


@lru_cache(maxsize=4096)
def theta_to_tau(family: str, theta: float) -> float:
    """Kendall's tau of the family at parameter theta, in closed form.

    Clayton: theta/(theta+2).  Gumbel: 1 - 1/theta.  Frank: 1 - 4/theta +
    4 D1(theta)/theta, with the Debye function D1 from Gauss-Legendre nodes
    for theta <= 2 and from its exponential series above.  Joe: the digamma
    form 1 + 2/(2-theta) (digamma(2) - digamma(1+2/theta)), summed as a
    series that is smooth through its limit 2 - pi^2/6 at theta = 2.  Each
    is accurate to a few units in the last place of tau.
    """
    _check_theta(family, theta)
    return _TAU_FORMS[family](theta)


@lru_cache(maxsize=4096)
def tau_to_theta(family: str, tau: float) -> float:
    """Inverse of :func:`theta_to_tau`: closed forms for Clayton and
    Gumbel; for Frank and Joe, bisection on a doubling bracket down to
    adjacent doubles, returning the end whose tau is nearer."""
    if not 0.0 < tau < 1.0:
        if tau == 0.0 and family == INDEPENDENCE:
            return 1.0
        raise NacError("tau must lie strictly between 0 and 1")
    if family == INDEPENDENCE:
        raise NacError("the independence family has tau = 0 only")
    if family == CLAYTON:
        return 2.0 / (1.0 / tau - 1.0)
    if family == GUMBEL:
        return 1.0 / (1.0 - tau)
    tau_of = _TAU_FORMS[family]
    lo, _, _ = _theta_range(family)  # tau is 0 at (or in the limit to) lo
    tau_lo, hi = 0.0, 2.0
    for _ in range(80):
        tau_hi = tau_of(hi)
        if tau_hi >= tau:
            break
        lo, tau_lo, hi = hi, tau_hi, 2.0 * hi
    else:
        raise NacError(f"tau={tau} not reachable for family {family}")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi if tau_hi - tau <= tau - tau_lo else lo
        tau_mid = tau_of(mid)
        if tau_mid < tau:
            lo, tau_lo = mid, tau_mid
        else:
            hi, tau_hi = mid, tau_mid


@dataclass(frozen=True)
class GeneratorSpec:
    """One Archimedean generator: family plus parameter, with Kendall's tau
    kept alongside theta (tau is the authoritative field in JSON specs)."""

    family: str
    theta: float
    tau: float

    def __post_init__(self):
        family = self.family.lower()
        object.__setattr__(self, "family", family)
        _check_theta(family, self.theta)
        if not -1e-12 <= self.tau < 1.0:
            raise NacError("tau must lie in [0, 1)")
        if abs(theta_to_tau(family, self.theta) - self.tau) > 1e-10:
            raise NacError(
                f"inconsistent generator: theta={self.theta} gives "
                f"tau={theta_to_tau(family, self.theta)}, not {self.tau}")

    @classmethod
    def from_tau(cls, family: str, tau: float) -> "GeneratorSpec":
        family = family.lower()
        if family == INDEPENDENCE:
            return cls(INDEPENDENCE, 1.0, 0.0)
        theta = tau_to_theta(family, tau)
        return cls(family, theta, theta_to_tau(family, theta))

    def psi(self, t):
        return psi(self.family, self.theta, t)

    def psi_inv(self, u):
        return psi_inv(self.family, self.theta, u)


# --------------------------------------------------------------------------- #
# Model spec
# --------------------------------------------------------------------------- #

OK = "ok"
WARN = "warn"
FAIL = "fail"


def _node_from_path(tree: RootedTree, path) -> int:
    v = tree.root
    for idx in path:
        kids = tree.children[v]
        if not 0 <= idx < len(kids):
            raise NacError(f"node path {list(path)} does not exist")
        v = kids[idx]
    return v


@dataclass(frozen=True)
class NestingReport:
    status: str
    issues: tuple

    def __bool__(self):
        return self.status != FAIL


class NacSpec:
    """A rooted tree plus one generator per internal node."""

    def __init__(self, tree: RootedTree, generators: dict):
        self.tree = tree
        self.generators = dict(generators)
        for v in tree.internal_nodes:
            if v not in self.generators:
                raise NacError(f"internal node {v} (leaves {sorted(tree.leaf_set(v))}) "
                               "has no generator")
        for v in self.generators:
            if tree.is_leaf(v):
                raise NacError("generators attach to internal nodes only")

    @property
    def d(self) -> int:
        return self.tree.n_leaves

    def generator(self, node: int) -> GeneratorSpec:
        return self.generators[node]

    @classmethod
    def single_family(cls, tree_or_newick, family: str, taus: dict) -> "NacSpec":
        """Convenience builder: one family, taus keyed by internal-node leaf
        set (any iterable of labels)."""
        tree = (tree_or_newick if isinstance(tree_or_newick, RootedTree)
                else parse_newick(tree_or_newick))
        wanted = {frozenset(key): tau for key, tau in taus.items()}
        gens = {}
        for v in tree.internal_nodes:
            key = tree.leaf_set(v)
            if key not in wanted:
                raise NacError(f"no tau given for internal node with leaves {sorted(key)}")
            gens[v] = GeneratorSpec.from_tau(family, wanted[key])
        if len(wanted) != len(gens):
            extra = set(wanted) - {tree.leaf_set(v) for v in tree.internal_nodes}
            raise NacError(f"taus given for non-nodes: {[sorted(k) for k in extra]}")
        return cls(tree, gens)

    # -- node paths (JSON addressing) ------------------------------------- #

    def _path_of_node(self, node: int):
        path = []
        v = node
        while v != self.tree.root:
            p = self.tree.parent[v]
            path.append(self.tree.children[p].index(v))
            v = p
        return list(reversed(path))

    def to_json_obj(self):
        gens = []
        for v in sorted(self.generators):
            g = self.generators[v]
            gens.append({"node_path": self._path_of_node(v),
                         "family": g.family, "tau": g.tau})
        return {"newick": write_newick(self.tree), "generators": gens}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj) -> "NacSpec":
        try:
            tree = parse_newick(obj["newick"])
            entries = obj["generators"]
        except (KeyError, TypeError) as exc:
            raise NacError(f"bad NAC spec JSON: {exc}") from None
        gens = {}
        for entry in entries:
            node = _node_from_path(tree, entry.get("node_path", []))
            gens[node] = GeneratorSpec.from_tau(entry["family"], float(entry["tau"]))
        return cls(tree, gens)

    @classmethod
    def from_json(cls, text: str) -> "NacSpec":
        return cls.from_json_obj(json.loads(text))


def check_nesting(spec: NacSpec) -> NestingReport:
    """Validate the generator assignment along every internal edge.

    fail : same family with theta_parent > theta_child (no exact sampler)
    warn : tau not nondecreasing down a path, or mixed families other than
           an independence parent (exact mixed-family sampling unsupported)
    """
    issues = []
    status = OK
    tree = spec.tree
    for v in tree.internal_nodes:
        if v == tree.root:
            continue
        p = tree.parent[v]
        gp, gc = spec.generators[p], spec.generators[v]
        where = f"{sorted(tree.leaf_set(p))} -> {sorted(tree.leaf_set(v))}"
        if gp.family == gc.family:
            if gp.family != INDEPENDENCE and gp.theta > gc.theta + 1e-12:
                status = FAIL
                issues.append(f"fail: {where}: theta decreases "
                              f"({gp.theta:.6g} > {gc.theta:.6g}) within {gp.family}")
        elif gp.family != INDEPENDENCE:
            if status != FAIL:
                status = WARN
            issues.append(f"warn: {where}: mixed families {gp.family}/{gc.family}")
        if gc.tau < gp.tau - 1e-9:
            if status != FAIL:
                status = WARN
            issues.append(f"warn: {where}: tau decreases down the tree "
                          f"({gp.tau:.4g} -> {gc.tau:.4g})")
    return NestingReport(status, tuple(issues))


# --------------------------------------------------------------------------- #
# Frailty samplers
# --------------------------------------------------------------------------- #


def stable_positive(alpha: float, size: int, rng) -> np.ndarray:
    """Positive alpha-stable draws with Laplace transform exp(-t^alpha),
    alpha in (0,1], via Kanter's representation."""
    if not 0 < alpha <= 1:
        raise NacError("stable exponent must lie in (0,1]")
    if alpha == 1.0:
        return np.ones(size)
    w = rng.uniform(0.0, math.pi, size)
    e = rng.exponential(1.0, size)
    a = (np.sin(alpha * w) ** alpha
         * np.sin((1.0 - alpha) * w) ** (1.0 - alpha)
         / np.sin(w)) ** (1.0 / (1.0 - alpha))
    return (a / e) ** ((1.0 - alpha) / alpha)


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _sibuya_survival(n: np.ndarray, alpha: float) -> np.ndarray:
    # P(N > n) = Gamma(n+1-alpha) / (Gamma(n+1) Gamma(1-alpha))
    log_ratio = np.asarray(_lgamma(n + 1.0 - alpha) - _lgamma(n + 1.0),
                           dtype=float)
    return np.exp(log_ratio - math.lgamma(1.0 - alpha))


_SIBUYA_TABLE_SIZE = 512


@lru_cache(maxsize=256)
def _sibuya_neg_table(alpha: float) -> np.ndarray:
    # -P(N > n) for n = 1..K, ascending, so searchsorted can invert it
    n = np.arange(1.0, _SIBUYA_TABLE_SIZE + 1.0)
    return -_sibuya_survival(n, alpha)


def sibuya(alpha: float, size: int, rng) -> np.ndarray:
    """Sibuya(alpha) draws (pgf 1-(1-x)^alpha), alpha in (0,1].

    Exact inversion of the survival function.  Quantiles up to a cached
    table size are found by binary search; deeper tail values start from
    the asymptotic inverse (within O(1) of the true quantile) and are
    corrected with exact survival probabilities.  Returned as floats: the
    tail is heavy enough to overflow integers for small alpha.
    """
    if not 0 < alpha <= 1:
        raise NacError("Sibuya exponent must lie in (0,1]")
    if alpha == 1.0:
        return np.ones(size)
    u = rng.uniform(size=size)
    target = 1.0 - u
    # N = min{n >= 1 : P(N > n) <= target}; counts entries with survival > t
    counts = np.searchsorted(_sibuya_neg_table(alpha), -target, side="left")
    out = counts + 1.0
    deep = counts == _SIBUYA_TABLE_SIZE
    if np.any(deep):
        t = target[deep]
        with np.errstate(over="ignore"):
            guess = np.floor((math.gamma(1.0 - alpha) * t) ** (-1.0 / alpha))
        guess = np.clip(guess, float(_SIBUYA_TABLE_SIZE), 1e18)
        # walk each unresolved entry to the smallest n with survival <= t
        active = np.flatnonzero(_sibuya_survival(guess, alpha) > t)
        for _ in range(64):
            if not active.size:
                break
            guess[active] += 1.0
            still = _sibuya_survival(guess[active], alpha) > t[active]
            active = active[still]
        active = np.flatnonzero(
            (guess > 1.0) & (_sibuya_survival(guess - 1.0, alpha) <= t))
        for _ in range(64):
            if not active.size:
                break
            guess[active] -= 1.0
            still = (guess[active] > 1.0) & (
                _sibuya_survival(guess[active] - 1.0, alpha) <= t[active])
            active = active[still]
        out[deep] = guess
    return out


def tilted_stable(alpha: float, tilt: np.ndarray, rng) -> np.ndarray:
    """Exponentially tilted stable draws with Laplace transform
    exp(-v((1+t)^alpha - 1)), elementwise over the tilt vector v.

    Each value is split into ceil(v) chunks so the rejection acceptance
    rate stays above 1/e, and the chunk draws are summed.
    """
    tilt = np.asarray(tilt, dtype=float)
    if alpha == 1.0:
        return tilt.copy()
    m = np.maximum(1, np.ceil(tilt).astype(np.int64))
    lam = tilt / m
    chunk_lam = np.repeat(lam, m)
    total = chunk_lam.size
    scale = chunk_lam ** (1.0 / alpha)
    draws = np.empty(total)
    pending = np.arange(total)
    while pending.size:
        cand = scale[pending] * stable_positive(alpha, pending.size, rng)
        accept = rng.uniform(size=pending.size) <= np.exp(-cand)
        draws[pending[accept]] = cand[accept]
        pending = pending[~accept]
    offsets = np.zeros(tilt.size, dtype=np.int64)
    np.cumsum(m[:-1], out=offsets[1:])
    return np.add.reduceat(draws, offsets)


def _sibuya_tempered(alpha: float, p: float, size: int, rng) -> np.ndarray:
    """Draws with pgf (1-(1-px)^alpha)/(1-(1-p)^alpha): a Sibuya(alpha)
    tilted by p^k.  Rejection from Sibuya with acceptance p^(N-1)."""
    out = np.empty(size)
    pending = np.arange(size)
    while pending.size:
        cand = sibuya(alpha, pending.size, rng)
        accept = rng.uniform(size=pending.size) <= p ** (cand - 1.0)
        out[pending[accept]] = cand[accept]
        pending = pending[~accept]
    return out


def _summed_draws(counts: np.ndarray, draw, rng) -> np.ndarray:
    """sum of `count` iid draws per entry, vectorized via reduceat."""
    counts = counts.astype(np.int64)
    total = int(counts.sum())
    draws = draw(total, rng)
    out = np.zeros(counts.size)
    nonzero = counts > 0
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    out[nonzero] = np.add.reduceat(draws, offsets[nonzero])
    return out


def _outer_frailty(gen: GeneratorSpec, n: int, rng) -> np.ndarray:
    """Root frailty: the law whose Laplace transform is the generator."""
    if gen.family == INDEPENDENCE:
        return np.ones(n)
    if gen.family == CLAYTON:
        return rng.gamma(1.0 / gen.theta, 1.0, n)
    if gen.family == GUMBEL:
        return stable_positive(1.0 / gen.theta, n, rng)
    if gen.family == FRANK:
        return rng.logseries(-math.expm1(-gen.theta), n).astype(float)
    if gen.family == JOE:
        return sibuya(1.0 / gen.theta, n, rng)
    raise NacError(f"no outer frailty sampler for {gen.family}")


def _inner_frailty(parent: GeneratorSpec, child: GeneratorSpec,
                   v_parent: np.ndarray, rng) -> np.ndarray:
    """Child frailty given the parent's: Laplace transform
    exp(-V_parent * psi_parent_inv(psi_child(t)))."""
    if parent.family == INDEPENDENCE:
        # independent blocks: the child behaves like a fresh root
        return _outer_frailty(child, v_parent.size, rng)
    if parent.family != child.family:
        raise NacError("exact sampling needs same-family nesting "
                       "(or an independence parent)")
    alpha = parent.theta / child.theta
    if alpha > 1.0 + 1e-12:
        raise NacError("nesting condition violated: theta must not decrease "
                       "down the tree")
    alpha = min(alpha, 1.0)
    if alpha == 1.0:
        return v_parent.copy()
    family = parent.family
    if family == GUMBEL:
        return v_parent ** (1.0 / alpha) * stable_positive(alpha, v_parent.size, rng)
    if family == CLAYTON:
        return tilted_stable(alpha, v_parent, rng)
    if family in (FRANK, JOE):
        counts = np.round(v_parent).astype(np.int64)
        small = counts <= SUM_CUTOFF
        out = np.empty(v_parent.size)
        if family == JOE:
            unit = lambda m, r: sibuya(alpha, m, r)
        else:
            p = -math.expm1(-child.theta)
            unit = lambda m, r: _sibuya_tempered(alpha, p, m, r)
        if np.any(small):
            out[small] = _summed_draws(counts[small], unit, rng)
        if np.any(~small):
            # heavy-tail limit of the sum; only reached by extreme parents
            big = counts[~small].astype(float)
            out[~small] = big ** (1.0 / alpha) * stable_positive(
                alpha, int((~small).sum()), rng)
        return out
    raise NacError(f"no inner frailty sampler for {family}")


# --------------------------------------------------------------------------- #
# Sampling
# --------------------------------------------------------------------------- #


def sample(spec: NacSpec, n: int, seed) -> np.ndarray:
    """Draw n rows from the NAC; columns follow ``spec.tree.leaf_labels``.

    Marginals are uniform on (0,1) and each leaf pair's copula is the
    Archimedean copula of its LCA's generator.  Exact except for Joe and
    Frank inner frailties whose parent frailty exceeds `SUM_CUTOFF`: those
    use the sum's heavy-tail stable limit.
    """
    if n < 1:
        raise NacError("need n >= 1")
    report = check_nesting(spec)
    if not report:
        raise NacError("nesting check failed: " + "; ".join(report.issues))
    rng = np.random.default_rng(seed)
    tree = spec.tree
    if tree.n_leaves < 2:
        raise NacError("need at least two leaves to sample")
    frailty = {}
    for v in tree.internal_nodes:  # preorder: parents come first
        gen = spec.generators[v]
        if v == tree.root:
            frailty[v] = _outer_frailty(gen, n, rng)
        else:
            parent_gen = spec.generators[tree.parent[v]]
            frailty[v] = _inner_frailty(parent_gen, gen, frailty[tree.parent[v]], rng)
    out = np.empty((n, tree.n_leaves))
    for col, leaf in enumerate(tree.leaves):
        parent = tree.parent[leaf]
        gen = spec.generators[parent]
        e = rng.exponential(1.0, n)
        out[:, col] = gen.psi(e / frailty[parent])
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
