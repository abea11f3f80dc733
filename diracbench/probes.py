"""Per-layer metrics of the traced run.

Most figures come from the spans the workloads record around their calls;
the rest come from probes here: single calls into one layer on fixed
inputs, timed as the median of a few repeats.  `layer_metrics` returns
every name in PER_LAYER with its value.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracing import RssSampler
from workloads import CLI_CASES, D4O12, WORKLOADS

SOLVES = ("annulus-h32", "annulus-h64", "saddle", "clifford-d2-p2.5",
          "clifford-d2-p1.5", "clifford-d3-p2.5", "clifford-d3-p1.5")
KERNEL_LADDER = (4e-3, 2e-3, 1e-3)
DENSE_POINTS = 200_000
SMALL_BATCH = 16

PER_LAYER = {
    "algebra.gp_dense_d4_s": "s",
    "algebra.gp_vec_mv_d4_s": "s",
    "algebra.gp_dense_d4_peak_mb": "MB",
    "algebra.gp_small_us": "us",
    "mobius.map_points_s": "s",
    "fields.compose_dirac_s": "s",
    "fields.dirac_fd_s": "s",
    "weakform.fitted_nodes_d4o12": "count",
    "weakform.support_quadrature_s": "s",
    "weakform.pairing_s_d4o12": "s",
    "weakform.pairing_peak_mb_d4o12": "MB",
    "weakform.family_s_d3o12": "s",
    **{f"weakform.covariance_s.t{k}": "s" for k in (1, 2, 3, 4)},
    "sphere.cap_weak_s": "s",
    "cr2d.theorem5_s": "s",
    **{f"solver.solve_s.{case}": "s" for case in SOLVES},
    "solver.iterations.h32": "count",
    "solver.iterations.h64": "count",
    "solver.grad_evals.h32": "count",
    "solver.grad_evals.h64": "count",
    "solver.gradient_s.h64": "s",
    "solver.energy_s.h64": "s",
    "solver.clifford_gradient_s.d3": "s",
    **{f"cli.{name}_s": "s" for name, _ in CLI_CASES},
    "cli.render_s": "s",
    **{f"trace.round_s.{name}": "s" for name in WORKLOADS},
}

# Calls the CLI and the solver make through their own module namespaces;
# the traced run replaces each with a wrapper that records a span.
WRAPPED = (
    ("cli", "dirac_covariance_experiment", "weakform.dirac_covariance_experiment"),
    ("cli", "harmonic_covariance_experiment", "weakform.harmonic_covariance_experiment"),
    ("cli", "normalized_weak_spherical_residual", "sphere.normalized_weak_spherical_residual"),
    ("cli", "theorem5_experiment", "cr2d.theorem5_experiment"),
    ("solver", "energy_gradient", "solver.energy_gradient"),
)


def median_time(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _algebra(lab, rng):
    A = lab.algebra
    out = {}
    a = A.Multivector(4, rng.standard_normal((DENSE_POINTS, 16)))
    b = A.Multivector(4, rng.standard_normal((DENSE_POINTS, 16)))
    v = A.Multivector.from_vector(4, rng.standard_normal((DENSE_POINTS, 4)))
    # memory first: once timed calls have run, the allocator hands their
    # freed blocks back to the next call and the resident set barely grows
    with RssSampler() as sampler:
        A.geometric_product(a, b)
    out["algebra.gp_dense_d4_peak_mb"] = sampler.growth_mb
    out["algebra.gp_dense_d4_s"] = median_time(lambda: A.geometric_product(a, b), 3)
    out["algebra.gp_vec_mv_d4_s"] = median_time(lambda: A.geometric_product(v, b), 3)

    pairs = [
        (A.Multivector(d, rng.standard_normal((SMALL_BATCH, 1 << d))),
         A.Multivector(d, rng.standard_normal((SMALL_BATCH, 1 << d))))
        for d in range(2, 7)
    ]
    calls = 100

    def small():
        for x, y in pairs:
            for _ in range(calls):
                A.geometric_product(x, y)

    out["algebra.gp_small_us"] = median_time(small, 5) / (calls * len(pairs)) * 1e6
    return out


def _conformal(lab, seed):
    """Moebius maps and composed fields on the node sets of the
    `covariance` subcommand at its defaults (inversion, n = 3, order 6)."""
    M, F, W = lab.mobius, lab.fields, lab.weakform
    m = M.parse_mobius_expr("inversion", 3)
    volume = W.pullback_domain(m, F.Domain.ball([3.0, 0.0, 0.0], 1.0))
    nodes = [W.support_quadrature(eta, 6)[0]
             for eta in W.default_test_functions(volume, seed=seed, random_count=2)]
    composed = F.compose_with_mobius(
        F.p_harmonic_radial(3, 2.5, center=[-5.0, 0.0, 0.0]), m)

    # the 20 shell points of the `kernel-residual` subcommand
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * rng.uniform(1.0, 3.0, 20)[:, None]
    kernel = F.p_dirac_solution(3, 2.0)
    return {
        "mobius.map_points_s": median_time(
            lambda: [M.map_points(m, q) for q in nodes], 3),
        "fields.compose_dirac_s": median_time(
            lambda: [composed.dirac(q) for q in nodes], 3),
        "fields.dirac_fd_s": median_time(
            lambda: [F.dirac_fd(kernel, pts, h=h) for h in KERNEL_LADDER], 20),
    }


def _support(lab, weak_inputs):
    W = lab.weakform
    bump = weak_inputs.bumps[4]
    return {
        "weakform.fitted_nodes_d4o12": len(W.support_quadrature(bump, 12)[1]),
        "weakform.support_quadrature_s": median_time(
            lambda: W.support_quadrature(bump, 12), 3),
    }


def _solver(lab, kept):
    S = lab.solver
    u64 = kept["annulus-h64"][0]
    u3 = kept["clifford-d3-p2.5"][0]
    return {
        "solver.gradient_s.h64": median_time(
            lambda: S.energy_gradient(u64, 1.5, 1e-6), 10),
        "solver.energy_s.h64": median_time(
            lambda: S.discrete_energy(u64, 1.5, 1e-6), 10),
        "solver.clifford_gradient_s.d3": median_time(
            lambda: S.energy_gradient(u3, 2.5, 0.0), 10),
    }


def _from_spans(tracer, kept, memory, rounds):
    out = {
        "weakform.pairing_s_d4o12": tracer.total(D4O12),
        "weakform.pairing_peak_mb_d4o12": memory[D4O12],
        "weakform.family_s_d3o12": tracer.total("weakform.family.*"),
        "sphere.cap_weak_s": tracer.total(
            "sphere.normalized_weak_spherical_residual", within="cli.sphere-check"),
        "cr2d.theorem5_s": tracer.total(
            "cr2d.theorem5_experiment", within="cli.cr-check"),
        "cli.render_s": tracer.total("cli.render"),
    }
    for k in (1, 2, 3, 4):
        out[f"weakform.covariance_s.t{k}"] = tracer.total(
            "weakform.*", within=f"cli.covariance.t{k}")
    for case in SOLVES:
        out[f"solver.solve_s.{case}"] = tracer.total(f"solver.solve.{case}")
    for k in (32, 64):
        solve = f"solver.solve.annulus-h{k}"
        out[f"solver.iterations.h{k}"] = kept[f"annulus-h{k}"][1].iterations
        out[f"solver.grad_evals.h{k}"] = tracer.count("solver.energy_gradient", within=solve)
    for name, _ in CLI_CASES:
        out[f"cli.{name}_s"] = tracer.total(f"cli.{name}")
    for name, rnd in rounds.items():
        out[f"trace.round_s.{name}"] = rnd.elapsed
    return out


def layer_metrics(lab, seed, inputs, tracer, rounds, kept):
    """Every PER_LAYER metric: `rounds` holds the traced Round of each
    workload and `kept` their solver results."""
    memory = {}
    for rnd in rounds.values():
        memory.update(rnd.memory)
    out = _algebra(lab, np.random.default_rng(seed))
    out.update(_conformal(lab, seed))
    out.update(_support(lab, inputs["weak-residual"]))
    out.update(_solver(lab, kept))
    out.update(_from_spans(tracer, kept, memory, rounds))
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}
