"""Weak formulations of the nonlinear Dirac and Laplace systems.

The weak residual of a field f against a compactly supported test function
eta is the full Clifford-valued quadrature

    integral over U of  conjugation(A(x) |f(x)|^(p-2) f(x)) * D eta(x) dx,

which vanishes for every eta exactly when f solves the (weighted) p-Dirac
equation in the distributional sense; replacing f by the derivative D h
gives the p-harmonic version.  This module supplies the quadrature engine
(a bump-fitted rule in spherical coordinates about each bump's centre, in
any dimension, whose double-exponential radial rule absorbs the flat
support edge), the mollifier-bump test functions and the covariance
experiments: pulling a solution back through a Moebius map and measuring
the weak residual of the transformed field on the preimage domain, in
both the plain-derivative and the twisted-derivative (frame-conjugated)
forms.  Each node block of an experiment reads the map through one
`mobius.MobiusPoint`, which gives the twist, the weight |c x + d|^s and
the frame from one c x + d.  Every bump owns its fitted rule
(`blocks(order, singular)`: a ball in R^n for a flat bump, the geodesic cap
of a `sphere.CapBump`, at a Gauss level set by the field's singular points),
so flat and cap bumps pair on one path, `_pair`.  The residuals take a
`QuadratureRule` only for its domain and order.

`weak_pairing` is the one place a Clifford-valued pairing is summed: the
flat residuals, the covariance experiments, the divergence oracle, the
spherical residuals and the planar Cauchy-Riemann residuals (`cr2d`, which
pairs the even encoding of a complex flux against an odd-blade bump) all
call it, and all take one path.  Every bump's derivative factors as D eta
= l(x) * B with l a vector and B the bump's constant blade (l is the
bump's `dirac_vector`: the profile gradient for a flat bump, the vector v
of the spherical operator for a `sphere.CapBump`), so the pairing forms
conj(f) l per node from the vector's components, multiplies the sum by B
once, and gets the normalizer from |l B| = |l| |B|.  The per-node product
forms, signs, weights and sums only the blades it can reach (7 of 16 for a
vector field in dim 4), and each block's field norm is formed once, by the
caller.  The sum before B depends only on the field, the weight and the
bump's support, so bumps that share a centre and radius (the blade bumps
of `default_test_functions`, or cap bumps on one cap) pair as one family
(`support_families`): one pass over the nodes, then one product per blade
of the stack.  The rule's nodes stream in blocks of a fixed size
(`_BLOCK`, from `polar_blocks`), which the pairing counts, and fields,
weights and l are evaluated one block at a time, so memory stays bounded
at any quadrature order.  Its summation order is fixed: each blade of a
block's weighted integrand is one row of a blade-major buffer, summed
along the node axis with the running total as element 0 by
np.add.accumulate, which is sequential (a plain sum along that axis would
go pairwise), so the pairing is the node-order sum of the whole array,
never a matrix product (whose BLAS blocking may vary); the normalizer
adds its block sums in node order.  Every reported number is therefore
deterministic for a fixed seed and order, and reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .algebra import (Multivector, _frozen, blade_label, conj_vector_sums, geometric_product,
                      pin_action, square_sum, vector_sandwich)
from .fields import (
    AnalyticField,
    Domain,
    DomainError,
    FieldError,
    composed_partials,
    dirac_field,
    power_scale,
    singular_preimages,
    validate_clearance,
)
from .mobius import MobiusPoint, PoleError, VahlenMatrix, map_points


class WeakFormError(ValueError):
    """Contract violation in the weak-form engine."""


class SupportError(WeakFormError):
    """A test function's support escapes the working domain."""


# The relative distance a bump's support keeps from the domain's edge.
SUPPORT_MARGIN = 1e-9


# --------------------------------------------------------- test functions


def mollifier(t):
    """The flat-edge profile phi(t) = exp(-1/(1 - t)) for t < 1, 0 beyond,
    and its derivative phi'(t) = -phi(t)/(1 - t)^2; every bump of the lab
    is phi of a squared scaled distance t."""
    # the clamp keeps 1/(1-t) finite and gap**2 a normal float; exp(-1/gap)
    # has already underflowed to the true limit 0 there, so phi' is exactly 0
    gap = np.maximum(1.0 - t, 1e-150)
    inside = t < 1.0
    phi = np.where(inside, np.exp(-1.0 / gap), 0.0)
    return phi, np.where(inside, -phi / gap**2, 0.0)


@dataclass(frozen=True)
class BumpTestFunction:
    """Smooth compactly supported test function  eta(x) = phi(x) * blade.

    The profile is phi = exp(-1/(1 - r^2)) for r = |x - center|/radius < 1
    and 0 outside, which is infinitely differentiable with all derivatives
    vanishing on the support boundary; `blade` is a constant Clifford
    coefficient multiplying the profile, so D eta = dirac_vector * blade.
    `sphere.CapBump` is this bump in the ambient space of a sphere.
    """

    dim: int
    center: tuple
    radius: float
    blade: Multivector
    label: str = "bump"

    def __post_init__(self):
        if not self.radius > 0:
            raise WeakFormError("bump radius must be positive")
        if self.blade.dim != self.dim:
            raise WeakFormError("blade dimension does not match the bump")
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))

    def _offset(self, pts):
        """d = x - center, in the layout of x, and t = |d|^2 / radius^2."""
        d = np.asarray(pts, dtype=float) - np.array(self.center)
        return d, square_sum(d) / self.radius**2

    def support_mask(self, pts) -> np.ndarray:
        return self._offset(pts)[1] < 1.0

    def profile(self, pts) -> np.ndarray:
        return mollifier(self._offset(pts)[1])[0]

    def dirac_vector(self, pts) -> np.ndarray:
        """(..., dim) components of the vector v with D eta = v * blade:
        the profile gradient rho(x) (x - center), of which every partial
        of eta is a component times the blade, in the layout of pts."""
        d, t = self._offset(pts)
        return (2.0 * mollifier(t)[1] / self.radius**2)[..., None] * d

    def __call__(self, pts) -> Multivector:
        return Multivector(self.dim, self.profile(pts)[..., None] * self.blade.coeffs)

    def dirac(self, pts) -> Multivector:
        """Analytic D eta = dirac_vector * blade."""
        vec = Multivector.from_vector(self.dim, self.dirac_vector(pts))
        return geometric_product(vec, self.blade)

    def clearance(self, singular) -> float:
        """min |s - center| / radius over the points s, 0 for none; chordal for a cap."""
        return min((math.dist(s, self.center) for s in singular), default=0.0) / self.radius

    def blocks(self, order: int, singular=()):
        """The fitted rule of the given order over the support, as
        `polar_blocks`: x = center + radius * r * omega, at the Gauss level
        the `clearance` of data singular only at `singular` needs."""
        dim, c, radius = self.dim, np.array(self.center)[:, None, None], self.radius

        def geometry(r, wr, omega, wo):
            rw = wr * r ** (dim - 1)
            return lambda i, j: (c + radius * (r[i, None] * omega[:, None, j]),
                                 radius**dim * (rw[i, None] * wo[j]))

        return polar_blocks(dim, order, geometry, self.clearance(singular))

    def require_support_inside(self, domain: Domain):
        c = np.array(self.center)
        r = self.radius
        if domain.kind == "box":
            lo, hi = np.array(domain.lo), np.array(domain.hi)
            pad = SUPPORT_MARGIN * (hi - lo)
            if np.any(c - r < lo + pad) or np.any(c + r > hi - pad):
                raise SupportError(f"{self.label}: support escapes the box")
        elif domain.kind == "ball":
            off = float(np.linalg.norm(c - np.array(domain.center)))
            if off + r > domain.outer * (1.0 - SUPPORT_MARGIN):
                raise SupportError(f"{self.label}: support escapes the ball")
        elif domain.kind == "annulus":
            off = float(np.linalg.norm(c - np.array(domain.center)))
            if (off - r < domain.inner * (1.0 + SUPPORT_MARGIN)
                    or off + r > domain.outer * (1.0 - SUPPORT_MARGIN)):
                raise SupportError(f"{self.label}: support escapes the annulus")
        else:  # pragma: no cover - Domain constructors forbid other kinds
            raise SupportError(f"unknown domain kind {domain.kind!r}")
        return self


def centered_bump(
    domain: Domain, blade: Multivector, label: str = "bump", scale: float = 0.6
) -> BumpTestFunction:
    """A deterministic bump at the natural center of the domain."""
    if domain.kind == "box":
        lo, hi = np.array(domain.lo), np.array(domain.hi)
        center = (lo + hi) / 2.0
        radius = scale * float(np.min(hi - lo) / 2.0)
    elif domain.kind == "ball":
        center = np.array(domain.center)
        radius = scale * domain.outer
    else:  # annulus: sit on the mid ring along the first axis
        center = np.array(domain.center, dtype=float)
        center[0] += (domain.inner + domain.outer) / 2.0
        radius = scale * (domain.outer - domain.inner) / 2.0
    bump = BumpTestFunction(domain.dim, tuple(center), radius, blade, label=label)
    return bump.require_support_inside(domain)


def random_unit_blade(dim: int, rng) -> Multivector:
    """A Clifford coefficient of unit norm with normal random components."""
    coeffs = rng.normal(size=1 << dim)
    return Multivector(dim, coeffs / np.linalg.norm(coeffs))


def bump_family(dim: int, seed: int, random_count: int, random, centered) -> list:
    """The experiment family layout of flat and cap bumps alike: from one
    rng seeded by `seed`, `random_count` bumps `random(rng, label)` labelled
    "rand-i", then one bump `centered(blade, label)` per basis blade,
    labelled "blade-X"."""
    rng = np.random.default_rng(seed)
    return [random(rng, f"rand-{i}") for i in range(random_count)] + [
        centered(Multivector.blade(dim, mask), f"blade-{blade_label(mask)}")
        for mask in range(1 << dim)
    ]


def random_bump(
    domain: Domain, rng, blade: Multivector = None, label: str = "bump"
) -> BumpTestFunction:
    """A bump with randomized center/radius, kept well resolved and inside."""
    dim = domain.dim
    if blade is None:
        blade = random_unit_blade(dim, rng)
    if domain.kind == "box":
        lo, hi = np.array(domain.lo), np.array(domain.hi)
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        off = rng.uniform(-0.35, 0.35, size=dim) * half
        center = mid + off
        rmax = 0.92 * float(np.min(half - np.abs(off)))
    elif domain.kind == "ball":
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        rho = rng.uniform(0.0, 0.35) * domain.outer
        center = np.array(domain.center) + rho * direction
        rmax = 0.92 * domain.outer - rho
    else:  # annulus
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        ring = (domain.inner + domain.outer) / 2.0
        center = np.array(domain.center) + ring * direction
        rmax = 0.92 * (domain.outer - domain.inner) / 2.0
    radius = rng.uniform(0.6, 0.95) * rmax
    bump = BumpTestFunction(dim, tuple(center), float(radius), blade, label=label)
    return bump.require_support_inside(domain)


def default_test_functions(domain: Domain, seed: int = 42, random_count: int = 5):
    """The experiment family: `random_count` random bumps with random unit
    Clifford coefficients, plus one centered bump per basis blade."""
    return bump_family(
        domain.dim, seed, random_count,
        lambda rng, label: random_bump(domain, rng, label=label),
        lambda blade, label: centered_bump(domain, blade, label=label),
    )


# ------------------------------------------------------------- quadrature


def _resolve_order(dim: int, order) -> int:
    """The quadrature order, 12 up to dim 3 and 8 above unless given."""
    if order is None:
        order = 12 if dim <= 3 else 8
    if order < 1:
        raise WeakFormError("quadrature order must be >= 1")
    return order


@dataclass
class QuadratureRule:
    """The domain a weak residual's bump must stay inside and the order of
    its fitted rule.  `node_count` sizes a tensor Gauss-Legendre grid of
    `cells_per_axis` cells per axis, which nothing builds."""

    domain: Domain
    order: int
    cells_per_axis: int

    @classmethod
    def build(cls, domain: Domain, order: int = None, cells: int = None):
        dim = domain.dim
        if dim > 4:
            raise WeakFormError("tensor quadrature is limited to dim <= 4")
        order = _resolve_order(dim, order)
        if cells is None:
            cells = 8 if dim <= 3 else 6
        if cells < 1:
            raise WeakFormError("quadrature cell count must be >= 1")
        return cls(domain, order, cells)

    @property
    def node_count(self) -> int:
        return (self.order * self.cells_per_axis) ** self.domain.dim


# Bump-supported integrands defeat box-tensor quadrature: the profile is
# flat to all orders on the support sphere, and cells cut by that sphere
# limit the tensor rule to ~1e-5 relative accuracy at any affordable node
# count.  Integrating in bump-centred spherical coordinates removes the
# problem: a double-exponential radial rule absorbs the flat edge and the
# angular factors are analytic, so the product rule reaches roundoff.


# Nodes per block of a fitted rule and its pairing.  Fixed, so the summation
# order never depends on the node count; a dim-4 block's (B, 16) arrays are
# 1 MB each, small enough to stay in cache between the pairing's passes.
_BLOCK = 1 << 13


@lru_cache(maxsize=None)
def _radial_rule(count: int):
    """Double-exponential nodes/weights for integral over r in (0, 1), read-only."""
    t = np.linspace(-3.2, 3.2, count)
    step = t[1] - t[0]
    s = (np.pi / 2.0) * np.sinh(t)
    r = 0.5 * (1.0 + np.tanh(s))
    dr = (np.pi / 4.0) * np.cosh(t) / np.cosh(s) ** 2
    return _frozen(r), _frozen(step * dr)


def _counts(order: int, rho: float = 0.0):
    """Node counts of the radial rule, a Gauss level G, a nested circle of 2G and a
    top circle.  G is max(12, 2 order) or, if less, the least G >= 12 with rho^(-2G)
    <= 2^-52, Gauss's rate on data analytic in a ball rho > 1 support radii wide."""
    level = max(12, 2 * order)
    level = min(level, max(12, math.ceil(26 / math.log2(rho)))) if rho > 1 else level
    return max(48, 8 * order), level, 2 * level, max(32, 8 * order)


def fitted_node_count(dim: int, order: int) -> int:
    """Nodes of the bump-fitted rule in dim dimensions, without building it."""
    radial, gauss, inner, outer = _counts(order)
    return radial * (outer if dim == 2 else gauss ** (dim - 2) * inner)


def _gauss_rule(count: int, alpha: float):
    """Gauss rule on (-1, 1) for the weight (1 - u^2)^alpha: numpy's Legendre
    rule at alpha = 0, else Golub-Welsch on the Gegenbauer Jacobi matrix."""
    if alpha == 0:
        return np.polynomial.legendre.leggauss(count)
    k = np.arange(1, count)
    off = np.sqrt(k * (k + 2 * alpha) / ((2 * k + 2 * alpha) ** 2 - 1.0))
    u, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mass = math.sqrt(math.pi) * math.gamma(alpha + 1) / math.gamma(alpha + 1.5)
    return u, mass * vecs[0] ** 2


@lru_cache(maxsize=None)
def _unit_sphere_rule(dim: int, level: int, circle: int):
    """Product rule on the unit sphere S^(dim-1), spectral for smooth data
    (Stroud 1971): the last coordinate u on the `level`-node Gauss rule for
    the weight (1 - u^2)^((dim-3)/2), times the rule on S^(dim-2) scaled by
    sqrt(1 - u^2), down to a uniform circle of `circle` nodes.  The nodes are
    (dim, M) rows, one per coordinate; both arrays are cached read-only."""
    if dim == 2:
        phi = 2.0 * np.pi * np.arange(circle) / circle
        return _frozen(np.stack([np.cos(phi), np.sin(phi)])), _frozen(np.full(circle, 2 * np.pi / circle))
    u, wu = _gauss_rule(level, (dim - 3) / 2.0)
    omega, wo = _unit_sphere_rule(dim - 1, level, circle)
    ring = (np.sqrt(1.0 - u**2)[:, None] * omega[:, None, :]).reshape(dim - 1, -1)
    nodes = np.concatenate([ring, np.repeat(u, len(wo))[None]])
    return _frozen(nodes), _frozen(np.multiply.outer(wu, wo).ravel())


def polar_blocks(dim: int, order: int, geometry, rho: float = 0.0):
    """The fitted rule, at the `_counts` of order and rho, as a stream of (x, w)
    blocks of at most `_BLOCK` nodes, in node order: node k pairs radial node
    k // M on (0, 1) with node k % M of the M-node rule on S^(dim-1).
    `geometry(r, wr, omega, wo)` receives both factor rules, omega as (dim, M)
    rows, and returns `place(i, j)`, the (n, I, J) nodes and (I, J) weights of
    radial slice i times sphere slice j; a block joins the rest of its first
    row, whole rows and the start of its last.  Its x is the (B, n) view of n
    contiguous rows of B coordinates, so that every per-node expression
    broadcasts along the nodes, not along the n components."""
    radial, level, inner, outer = _counts(order, rho)
    r, wr = _radial_rule(radial)
    omega, wo = _unit_sphere_rule(dim, level, outer if dim == 2 else inner)
    place, m = geometry(r, wr, omega, wo), len(wo)
    for start in range(0, len(r) * m, _BLOCK):
        (i, j), (k, l) = divmod(start, m), divmod(min(start + _BLOCK, len(r) * m), m)
        rects = ((i, i + 1, j, m if k > i else l), (i + 1, k, 0, m), (max(k, i + 1), k + 1, 0, l))
        x, w = (np.concatenate(vs, axis=-1) if len(vs) > 1 else vs[0] for vs in zip(*(
            [v.reshape(*v.shape[:-2], -1) for v in place(slice(a, b), slice(c, d))]
            for a, b, c, d in rects if b > a and d > c)))
        yield x.T, w


def support_quadrature(eta: BumpTestFunction, order: int):
    """All nodes and weights of `eta.blocks(order)`, joined."""
    nodes, weights = zip(*eta.blocks(order))
    return np.concatenate(nodes), np.concatenate(weights)


# -------------------------------------------------------- weak residuals


def weak_pairing(blocks, block, right: Multivector):
    """The weak pairing of node values against D eta = left * right, with
    `left` a vector field and `right` a constant multivector: returns

        raw        = [sum over nodes of w conj(vals) * left] * right
        normalizer = sum over nodes of w |vals| |left| |right|

    and the number of nodes summed.

    `blocks` yields the (x, wx) node blocks of a rule, and `block(x, wx)`
    gives (vals, norms, left, wx') on each: `vals` a batched (or constant)
    Multivector, `norms` its `norm()`, which the caller has already formed
    for its |vals|^(p-2) factor, `left` the (B, n) components of the vector,
    and wx' the weights with any A |f|^(p-2) factor folded in.  An (E, B) wx'
    gives E rows of (raw, normalizer) from one product per node.  `right`
    is applied once, after the sum, so a stack of K right factors (a
    Multivector batched over one leading axis) shares the pass and gets K
    rows in front of the E rows; an unbatched right gets none.  The
    normalizer uses |left * right| = |left| |right|, which holds because
    left is a vector.

    Each block of at most `_BLOCK` nodes goes to `conj_vector_sums`, which
    forms conj(vals) * left from the vector's n components on the blades
    it can reach (1 + n(n-1)/2 of 2**n for a vector field), weights it into
    the rows of one blade-major buffer that the pass owns, and adds it to
    the running total by a sequential node-order accumulate: the node-order
    sum of the whole array, bit for bit.  The normalizer sums each block's
    terms and adds the block sums in node order, so memory does not grow
    with the node count.
    """
    dim = right.dim
    raw = buf = total = None
    count = 0
    for x, w in blocks:
        vals, norms, left, wx = block(x, w)
        if buf is None:
            raw = np.zeros(wx.shape[:-1] + (1 << dim,))
            buf = np.empty(wx.shape[:-1] + (1 << dim, _BLOCK + 1))
            total = np.zeros(wx.shape[:-1])
        conj_vector_sums(left, vals, wx, raw, buf)
        total += np.sum(wx * norms * np.sqrt(square_sum(left)), axis=-1)
        count += len(w)
    stacked = right.coeffs.reshape(right.coeffs.shape[:-1] + (1,) * total.ndim + (-1,))
    raw = geometric_product(
        Multivector(dim, raw, copy=False), Multivector(dim, stacked, copy=False)
    ).coeffs
    return raw, np.multiply.outer(right.norm(), total), count


def normalized_ratio(residual_norm, normalizer) -> float:
    """|weak residual| / normalizer, the normalizer floored just above 0 so
    that a pairing against a vanishing field reads 0, not NaN."""
    return float(residual_norm) / max(float(normalizer), 1e-300)


def support_families(bumps) -> list:
    """Runs of consecutive bumps that share one support (the exact centre
    and radius), in order: a run's pairing streams its nodes once and
    multiplies the sum by each blade of the run."""
    return [list(run) for _, run in groupby(bumps, key=lambda b: (b.center, b.radius))]


def _pair(values, name: str, p: float, family, order: int, singular=()):
    """Raw pairings (K, 2**n), normalizers (K,) and node count of conj(A
    |v|^(p-2) v) * D eta for the K bumps, flat or cap, of a family sharing
    one support, in one pass over its fitted nodes of the given order;
    `values(x)` gives (v, A) on a node block, A None when unweighted, and
    `name` names v when |v| vanishes.  v and A are analytic off the points
    `singular`; with none declared the rule keeps the order's full level."""
    eta = family[0]

    def block(x, wx):
        vals, weight = values(x)
        norms = vals.norm()
        scale = power_scale(norms, p, name)
        if weight is not None:
            scale = scale * weight
        return vals, norms, eta.dirac_vector(x), wx * scale

    blades = Multivector(eta.dim, [b.blade.coeffs for b in family])
    return weak_pairing(eta.blocks(order, singular), block, blades)


def pair_each(values, name: str, p: float, bumps, order: int, singular=()):
    """`_pair` over each run of `support_families(bumps)`: per bump, in
    order, (bump, |raw pairing|, normalizer, node count)."""
    for family in support_families(bumps):
        raw, normalizer, count = _pair(values, name, p, family, order, singular)
        norms = Multivector(family[0].dim, raw, copy=False).norm()
        yield from ((b, float(r), float(nz), count) for b, r, nz in zip(family, norms, normalizer))


def _pair_inside(values, name: str, p: float, eta: BumpTestFunction, rule: QuadratureRule,
                 singular=()):
    """The raw pairing (a Multivector) and normalizer of one bump, whose
    support must lie inside the rule's domain."""
    raw, normalizer, _ = _pair(values, name, p, [eta.require_support_inside(rule.domain)],
                               rule.order, singular)
    return Multivector(eta.dim, raw[0]), normalizer[0]


def weak_p_dirac_residual(
    f: AnalyticField, p: float, eta: BumpTestFunction, rule: QuadratureRule,
    weight=None,
) -> Multivector:
    """Clifford-valued quadrature of conj(A |f|^(p-2) f) * D eta over U."""
    return _pair_inside(lambda x: (f(x), None if weight is None else weight(x)), f.name,
                        p, eta, rule, f.singular_points if weight is None else ())[0]


def weak_p_harmonic_residual(
    h: AnalyticField, p: float, eta: BumpTestFunction, rule: QuadratureRule
) -> Multivector:
    """Quadrature of conj(|Dh|^(p-2) Dh) * D eta; needs analytic Dh."""
    return _pair_inside(lambda x: (h.dirac(x), None), h.name, p, eta, rule, h.singular_points)[0]


def normalized_weak_residual(
    f: AnalyticField, p: float, eta: BumpTestFunction, rule: QuadratureRule,
    of_derivative: bool = False,
) -> float:
    """|weak residual| / normalizer, the normalizer being the quadrature
    of |f|^(p-1) |D eta|; computed in one pass."""
    evaluate = f.dirac if of_derivative else f
    raw, normalizer = _pair_inside(lambda x: (evaluate(x), None), f.name, p, eta, rule,
                                   f.singular_points)
    return normalized_ratio(raw.norm(), normalizer)


def dirac_integral_check(eta: BumpTestFunction, rule: QuadratureRule) -> float:
    """|integral of D eta| / integral of |D eta| - the divergence-theorem
    oracle; compact support makes the exact value 0 in every component.
    It pairs the constant 1 at p = 2, where every weight stays as it is."""
    one = Multivector.scalar(eta.dim, 1.0)
    raw, normalizer = _pair_inside(lambda x: (one, None), "1", 2.0, eta, rule)
    return normalized_ratio(raw.norm(), normalizer)


# ------------------------------------------------------- domain pullback


def pullback_domain(m: VahlenMatrix, dom: Domain) -> Domain:
    """The preimage of `dom` under the Moebius map of `m`, in closed form.

    M^-1 sends each bounding sphere |y - c| = r to a sphere and keeps right
    angles.  The line through c and M(inf), the pole of M^-1 (any line
    through c when the map is affine), crosses the sphere at right angles
    and goes to a line, which therefore crosses the image sphere at right
    angles: the images of the two crossings c +- r u are the ends of a
    diameter.  A ball whose closure holds M(inf) would turn inside out and
    is refused, and so is one whose nearer crossing lies within the pole
    tolerance of M(inf), where M^-1 refuses it; an annulus or a box under a
    map with a pole is refused too, and a box survives only scalar a, d (no
    rotation).
    """
    inv = m.inverse
    pole = inv.pole
    if pole and dom.kind != "ball":
        raise DomainError("pullback under a map with a pole is implemented for balls only")
    if dom.kind == "box":
        if not (m.a.is_grade(0) and m.d.is_grade(0)):
            raise DomainError("pullback of a box under a rotating map is not a box; use a ball")
        lo2, hi2 = map_points(inv, np.array([dom.lo, dom.hi]))
        return Domain.box(np.minimum(lo2, hi2), np.maximum(lo2, hi2))
    c = np.array(dom.center)
    u = np.array(pole[0]) - c if pole else np.eye(dom.dim)[0]
    gap = float(np.linalg.norm(u))
    if pole and gap <= dom.outer:
        raise DomainError("the map turns the ball inside out (pole inside the region)")
    u = u / gap
    radii = [dom.inner, dom.outer] if dom.kind == "annulus" else [dom.outer]
    try:
        ends = map_points(inv, c + np.multiply.outer(radii, [u, -u]))
    except PoleError as exc:
        raise DomainError(f"the ball's boundary reaches M(inf): {exc}") from exc
    centers = (ends[:, 0] + ends[:, 1]) / 2.0
    spans = np.linalg.norm(ends[:, 0] - ends[:, 1], axis=-1) / 2.0
    if dom.kind == "annulus":
        return Domain.annulus(centers[1], *spans)
    return Domain.ball(centers[0], spans[0])


# ------------------------------------------------------------ experiments


@dataclass(frozen=True)
class CovarianceRow:
    eta_label: str
    exponent: float
    residual_norm: float
    normalizer: float
    nodes: int

    @property
    def normalized(self) -> float:
        return normalized_ratio(self.residual_norm, self.normalizer)


@dataclass
class CovarianceReport:
    """Per-test-function residual table of a covariance experiment."""

    experiment: str
    dim: int
    p: float
    domain: Domain
    rows: list
    order: int
    notes: tuple = ()

    @property
    def max_normalized(self) -> float:
        return max(r.normalized for r in self.rows)

    def normalized_by_exponent(self) -> dict:
        out = {}
        for r in self.rows:
            out[r.exponent] = max(out.get(r.exponent, 0.0), r.normalized)
        return out

    @property
    def best_exponent(self) -> float:
        table = self.normalized_by_exponent()
        return min(table, key=lambda s: table[s])

    def to_rows(self) -> list:
        return [
            {
                "experiment": self.experiment,
                "n": self.dim,
                "p": self.p,
                "exponent": r.exponent,
                "eta": r.eta_label,
                "nodes": r.nodes,
                "residual": r.residual_norm,
                "normalizer": r.normalizer,
                "normalized": r.normalized,
            }
            for r in self.rows
        ]


def _pullback_and_validate(f, m, source_domain):
    """The checked preimage domain and the singular points of f(M(x)), the map's pole first;
    the clearance check measures the pole by |c| times its distance."""
    volume, singular = pullback_domain(m, source_domain), singular_preimages(f, m)
    validate_clearance(volume, singular_points=singular[len(m.pole):], mobius=m)
    return volume, singular


def dirac_covariance_experiment(
    f: AnalyticField,
    p: float,
    m: VahlenMatrix,
    source_domain: Domain,
    *,
    seed: int = 42,
    order: int = None,
    random_bumps: int = 5,
) -> CovarianceReport:
    """Covariance of the p-Dirac equation under a Moebius map.

    Given a weak p-Dirac solution f on the source domain U, the pullback
    g(x) = (c x + d)^{-1} f(M(x)) is measured as a weak solution of the
    weighted equation on M^{-1}(U) with weight |c x + d|^(p - n); at p = n
    the weight is identically 1 and the statement is the conformal
    covariance of the n-Dirac equation.  Each bump is integrated on its
    fitted rule of the given order (default 12 up to dim 3, 8 above).
    """
    dim = source_domain.dim
    order = _resolve_order(dim, order)
    volume, singular = _pullback_and_validate(f, m, source_domain)
    exponent = float(p - dim)

    def values(x):
        # the twisted pullback (c x + d)^-1 f(M(x)) and its weight |c x + d|^(p - n)
        at = MobiusPoint(m, x)
        return at.twist(f), at.scale**exponent

    etas = default_test_functions(volume, seed=seed, random_count=random_bumps)
    pairs = pair_each(values, f"twist[{f.name}]", p, etas, order, singular)
    rows = [CovarianceRow(eta.label, exponent, r, nz, count) for eta, r, nz, count in pairs]
    return CovarianceReport("dirac-pullback", dim, float(p), volume, rows, order)


def harmonic_covariance_experiment(
    h: AnalyticField,
    p: float,
    m: VahlenMatrix,
    source_domain: Domain,
    *,
    seed: int = 42,
    order: int = None,
    random_bumps: int = 5,
) -> CovarianceReport:
    """Covariance of the p-harmonic equation in the twisted-derivative form.

    The composed field h(M(x)) is measured against the weighted equation
    whose derivative operator is the frame-twisted Dirac operator
    D_M = sum_j u e_j rev(u) d/dx_j with u = (c x + d)/|c x + d|: for each
    weight exponent s in the scan the residual is the quadrature of

        |c x + d|^s |G|^(p-2) conj(G) * D_M eta,   G := D_M [h o M],

    over the preimage domain.  A change of variables makes the exponent
    s = 2(p - n) exact (at p = n: s = 0, the unweighted twisted form); the
    scan s = 2(p + 2 - n), 2(p - n), p - n, 0 reports each exponent and
    never asserts one.  The order is that of the bump-fitted rule, as in
    `dirac_covariance_experiment`.  h is scalar, as a p-harmonic function
    is: a field with a partial off the scalar blade is refused.
    """
    dim = source_domain.dim
    order = _resolve_order(dim, order)
    if not h.has_grad:
        raise FieldError(f"experiment needs the analytic derivative of {h.name!r}")
    if not p > 1:
        raise FieldError("the exponent p must exceed 1")
    volume, singular = _pullback_and_validate(h, m, source_domain)
    scan = (2.0 * (p + 2.0 - dim), 2.0 * (p - dim), float(p - dim), 0.0)
    exponents = tuple(dict.fromkeys(round(s, 12) for s in scan))
    notes = ()
    if p == dim:
        notes = (
            "exponent 0 realizes the unweighted twisted-derivative form",
        )
    exps = np.array(exponents)[:, None]
    rows = []
    etas = default_test_functions(volume, seed=seed, random_count=random_bumps)
    for family in support_families(etas):
        eta = family[0]

        def block(x, wx, eta=eta):
            at = MobiusPoint(m, x)
            frame, scale = at.frame, at.scale  # first: mixed parity is refused there
            partials = h.grad(at.image)
            if not all(d.live and not any(d.live[1:]) or d.is_grade(0) for d in partials):
                raise FieldError(f"the twisted gradient needs a scalar field, not {h.name!r}")
            # G = D_M [h o M] on its n components, summed from 0.0 in j order
            # as the products sum_j (u e_j rev(u)) d_j [h o M] summed it
            twisted = sum((col * acc for col, acc in zip(frame, composed_partials(
                [d.scalar_part() for d in partials], frame, scale))), np.zeros(x.shape[::-1]))
            twisted = Multivector.from_vector(dim, twisted.T)
            norms = twisted.norm()
            power = power_scale(norms, p, f"{h.name}∘M")
            # D_M eta = u (grad phi) rev(u) * blade: the rotated gradient is
            # a vector, so it pairs as one
            slope = vector_sandwich(at.u, eta.dirac_vector(x).T)[0]
            return twisted, norms, slope.T, wx * scale**exps * power

        blades = Multivector(dim, [b.blade.coeffs for b in family])
        raw, normalizer, count = weak_pairing(eta.blocks(order, singular), block, blades)
        norms = Multivector(dim, raw, copy=False).norm()
        rows.extend(
            CovarianceRow(bump.label, s, float(r), float(nz), count)
            for bump, by_s, nz_s in zip(family, norms, normalizer)
            for s, r, nz in zip(exponents, by_s, nz_s)
        )
    return CovarianceReport("twisted-harmonic", dim, float(p), volume, rows, order, notes)


# ------------------------------------------------- pointwise invariances


def sc_invariance_check(
    f: AnalyticField,
    p: float,
    m: VahlenMatrix,
    eta: BumpTestFunction,
    points,
) -> float:
    """Scalar parts of the twisted and plain pairings agree pointwise.

    Compares Sc(|Df(y)|^(p-2) conj(u Df(y) rev(u)) u Deta(y) rev(u)) with
    Sc(|Df(y)|^(p-2) conj(Df(y)) Deta(y)) at y = M(x), u the unit frame of
    the map at x; returns the largest absolute discrepancy.
    """
    at = MobiusPoint(m, points)
    y = at.image
    df = dirac_field(f)(y)
    deta = eta.dirac(y)
    factor = df.norm() ** (p - 2.0)
    twisted = geometric_product(
        pin_action(at.u, df).conjugation(), pin_action(at.u, deta)
    ).scalar_part()
    plain = geometric_product(df.conjugation(), deta).scalar_part()
    return float(np.max(np.abs(factor * (twisted - plain)), initial=0.0))


def norm_frame_identity_check(
    m: VahlenMatrix, f: AnalyticField, points
) -> float:
    """| |u Df(M(x)) rev(u)| - |Df(M(x))| | - the frame is an isometry."""
    at = MobiusPoint(m, points)
    df = dirac_field(f)(at.image)
    return float(np.max(np.abs(pin_action(at.u, df).norm() - df.norm()), initial=0.0))
