"""The three workloads: inputs made from a seed, a fixed list of calls into
diraclab's public functions, and an independent check of each result.

Each workload has `setup(lab, seed, workdir)`, which builds its inputs
(the CLI artifacts go to `workdir`), and
`run(lab, inputs, rnd)`, which makes one round of calls through
`rnd.op(name, call, check)`.  `lab` holds the imported diraclab modules,
so a fresh import gives fresh functions.  The names passed to `rnd.op`
become span names in the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback
from types import SimpleNamespace

import numpy as np

import checks as C
from tracing import RssSampler


class Round:
    """Runs and times the calls of one round and checks their results.

    An exception in a call counts it as failed; a result that fails its
    check marks the round incorrect.  `elapsed` sums the time spent inside
    calls only; checks, and `after_op` when given, run outside it.
    """

    def __init__(self, tracer, after_op=None):
        self.tracer = tracer
        self.after_op = after_op
        self.attempted = 0
        self.failed = []
        self.wrong = []
        self.elapsed = 0.0
        self.memory = {}

    def op(self, name, call, check=None, measure_memory=False):
        self.attempted += 1
        sampler = RssSampler() if measure_memory and self.tracer.enabled else None
        with self.tracer.span(name), sampler or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = call()
            except Exception:  # a fault in the program: count it, keep going
                self.elapsed += time.perf_counter() - start
                self.failed.append((name, traceback.format_exc()))
                return None
            self.elapsed += time.perf_counter() - start
        if sampler is not None:
            self.memory[name] = sampler.growth_mb
        if check is not None:
            self._check(name, check, result)
        if self.after_op is not None:
            self.after_op()
        return result

    def expect(self, name, test):
        """A check that combines the results of several calls; `test`
        takes no arguments."""
        self._check(name, test)

    def _check(self, name, test, *args):
        try:
            if not test(*args):
                self.wrong.append((name, "check failed\n"))
        except Exception:  # the result lacks what the check reads
            self.wrong.append((name, traceback.format_exc()))


# ----------------------------------------------------------- weak-residual

RESIDUAL_CASES = ((2, 1.5), (3, 2.0), (3, 2.5), (4, 3.0))
IDENTITY_CASES = ((2, 6), (2, 12), (3, 6), (3, 12), (4, 6))
# measured gaps of the fitted rule against the closed form: ~6e-6 at order
# 6 and ~2e-12 at order 12, for every dimension and seed tried
IDENTITY_RTOL = {6: 1e-4, 12: 1e-10}
D4O12 = "weakform.residual.n4-p3.o12"


def _ball(lab, n):
    return lab.fields.Domain.ball([3.0] + [0.0] * (n - 1), 1.0)


def weak_setup(lab, seed, workdir):
    F, W = lab.fields, lab.weakform
    balls = {n: _ball(lab, n) for n in (2, 3, 4)}
    return SimpleNamespace(
        balls=balls,
        family=W.default_test_functions(balls[3], seed=seed, random_count=5),
        bumps={
            n: W.default_test_functions(b, seed=seed, random_count=1)[0]
            for n, b in balls.items()
        },
        solutions={(n, p): F.p_dirac_solution(n, p) for n, p in RESIDUAL_CASES},
        family_field=F.p_dirac_solution(3, 2.5),
        identity={n: F.identity_field(n) for n in balls},
    )


def weak_run(lab, x, rnd):
    W = lab.weakform
    build = W.QuadratureRule.build
    ball3 = x.balls[3]

    rule6 = rnd.op("weakform.rule.ball3.o6", lambda: build(ball3, order=6, cells=2),
                   lambda r: r.node_count == 12**3)
    for eta in x.family:
        rnd.op(f"weakform.divergence_oracle.{eta.label}",
               lambda: W.dirac_integral_check(eta, rule6),
               lambda v: C.at_most(v, 1e-10))

    for n, p in RESIDUAL_CASES:
        f, eta, dom = x.solutions[n, p], x.bumps[n], x.balls[n]
        tag = f"n{n}-p{p:g}"
        r = {}
        for order in (6, 12):
            r[order] = rnd.op(
                f"weakform.residual.{tag}.o{order}",
                lambda: W.normalized_weak_residual(
                    f, p, eta, build(dom, order=order, cells=2)),
                lambda v: C.at_most(v, 1e-6),
                measure_memory=(n, order) == (4, 12))
        if None not in r.values():
            rnd.expect(f"weakform.order_doubling.{tag}",
                       lambda: C.order_doubling_ok(r[6], r[12]))
        # negative control: the solution is not one at the wrong exponent
        rnd.op(f"weakform.wrong_exponent.{tag}",
               lambda: W.normalized_weak_residual(
                   f, p + 0.5, eta, build(dom, order=6, cells=2)),
               lambda v: C.at_least(v, 1e-3))

    rule12 = rnd.op("weakform.rule.ball3.o12", lambda: build(ball3, order=12, cells=2),
                    lambda r: r.node_count == 24**3)
    for eta in x.family:
        rnd.op(f"weakform.family.{eta.label}",
               lambda: W.normalized_weak_residual(x.family_field, 2.5, eta, rule12),
               lambda v: C.at_most(v, 1e-6))

    for n, order in IDENTITY_CASES:
        eta = x.bumps[n]
        rnd.op(f"weakform.identity_pairing.n{n}.o{order}",
               lambda: W.weak_p_dirac_residual(
                   x.identity[n], 2.0, eta,
                   build(x.balls[n], order=order, cells=2)).coeffs,
               lambda c: C.identity_pairing_ok(
                   c, n, eta.radius, eta.blade.coeffs, IDENTITY_RTOL[order]))
    return {}


# ----------------------------------------------------------- lattice-solve

AFFINE_CASES = ((2, 1 / 16), (3, 1 / 12))
AFFINE_EXPONENTS = ((2.5, 0.0), (1.5, 1e-4))


def _inverse_radius(pts):
    return 1.0 / np.linalg.norm(pts, axis=-1)


def _saddle(pts):
    return pts[..., 0] ** 2 - pts[..., 1] ** 2


def lattice_setup(lab, seed, workdir):
    S, A = lab.solver, lab.algebra
    rng = np.random.default_rng(seed)
    affine = []
    for dim, h in AFFINE_CASES:
        slope = rng.normal(size=(dim, 1 << dim))
        offset = rng.normal(size=1 << dim)
        affine.append(SimpleNamespace(
            dim=dim,
            domain=S.LatticeDomain.box([0.0] * dim, [1.0] * dim, h),
            slope=slope,
            offset=offset,
            boundary=lambda pts, dim=dim, slope=slope, offset=offset:
                A.Multivector(dim, pts @ slope + offset),
        ))
    return SimpleNamespace(
        annuli={k: S.LatticeDomain.annulus(1.0, 2.0, 1 / k) for k in (32, 64)},
        box=S.LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 16),
        affine=affine,
    )


def _coords(dom):
    return C.lattice_coordinates(dom.lo, dom.h, dom.shape)


def _settled(result):
    _, diag = result
    return diag.converged and C.monotone(diag.energies)


def lattice_run(lab, x, rnd):
    S = lab.solver
    kept = {}

    errs = {}
    for k, dom in x.annuli.items():
        name = f"annulus-h{k}"
        out = rnd.op(
            f"solver.solve.{name}",
            lambda: S.solve_dirichlet(dom, _inverse_radius,
                                      S.SolverConfig(p=1.5, epsilon=1e-6)),
            _settled)
        if out is not None:
            kept[name] = out
            errs[k] = C.annulus_error(out[0].values, _coords(dom), dom.interior_mask)
            rnd.expect(f"solver.{name}.error", lambda: C.at_most(errs[k], 0.05))
    if len(errs) == 2:
        rnd.expect("solver.refinement_gain",
                   lambda: C.refinement_gain_ok(errs[32], errs[64]))

    box = x.box
    rnd.op("solver.solve.saddle",
           lambda: S.solve_dirichlet(box, _saddle, S.SolverConfig(p=2.0)),
           lambda res: _settled(res)
           and C.at_most(C.max_interior_gap(
               res[0].values, _saddle(_coords(box)), box.interior_mask), 1e-6)
           and C.at_most(C.five_point_residual(
               res[0].values, box.h, box.interior_mask), 1e-8))

    for case in x.affine:
        dom = case.domain
        exact = _coords(dom) @ case.slope + case.offset
        for p, eps in AFFINE_EXPONENTS:
            name = f"clifford-d{case.dim}-p{p:g}"
            out = rnd.op(
                f"solver.solve.{name}",
                lambda: S.solve_dirichlet(dom, case.boundary,
                                          S.SolverConfig(p=p, epsilon=eps)),
                lambda res: _settled(res) and C.at_most(
                    C.max_interior_gap(res[0].values, exact, dom.interior_mask), 1e-8))
            if out is not None:
                kept[name] = out
    return kept


# --------------------------------------------------------------- cli-sweep

CLI_CASES = (
    ("algebra-selftest", ()),
    ("kernel-residual", ()),
    ("covariance.t1", ("--theorem", "1")),
    ("covariance.t2", ("--theorem", "2")),
    ("covariance.t3", ("--theorem", "3")),
    ("covariance.t4", ("--theorem", "4")),
    ("solve", ()),
    ("sphere-check", ()),
    ("cr-check", ()),
)


def _covariance_check(mode):
    def check(doc):
        rows = doc["rows"]
        n, p = rows[0]["n"], rows[0]["p"]
        table = C.normalized_by_exponent(rows)
        if mode == 1:
            return C.at_most(max(table.values()), 1e-5)
        if mode == 2:
            return C.at_most(table[0.0], 1e-5)
        if mode == 3:
            return C.at_most(table[2.0 * (p - n)], 1e-5)
        return C.scan_minimum_ok(rows, p, n)
    return check


def _artifact_checks(lab):
    return {
        "algebra-selftest": lambda doc: all(
            C.product_signs_ok(lab.algebra.product_signs(n), n)
            for n in sorted({r["n"] for r in doc["rows"]})),
        "kernel-residual": lambda doc: C.kernel_order_ok(doc["rows"]),
        **{f"covariance.t{k}": _covariance_check(k) for k in (1, 2, 3, 4)},
        "solve": lambda doc: C.at_most(C.affine_interior_gap(doc["rows"], 2), 1e-6),
        "sphere-check": lambda doc: (
            C.rows_below(doc["rows"], "kernel-strong-residual", 1e-6)
            and C.rows_below(doc["rows"], "kernel-weak-residual", 1e-5)
            and C.rows_below(doc["rows"], "cayley-ratio-constancy", 1e-6)),
        "cr-check": lambda doc: (
            C.rows_below(doc["rows"], "strong-residual", 1e-8)
            and C.rows_below(doc["rows"], "derivative-transfer", 1e-6)
            and C.rows_below(doc["rows"], "composition-covariance", 1e-6)),
    }


def cli_setup(lab, seed, workdir):
    argv = {}
    for name, flags in CLI_CASES:
        path = os.path.join(workdir, name + ".json")
        sub = name.split(".")[0]
        argv[name] = [sub, *flags, "--seed", str(seed), "--format", "json",
                      "--out", path]
    return SimpleNamespace(argv=argv, checks=_artifact_checks(lab))


def _read(path):
    with open(path, encoding="ascii") as fh:
        return fh.read()


def cli_run(lab, x, rnd):
    texts = {}
    for name, _ in CLI_CASES:
        argv = x.argv[name]
        # the per-check report goes to a buffer, not the terminal
        with contextlib.redirect_stderr(io.StringIO()):
            code = rnd.op(f"cli.{name}", lambda: lab.cli.main(argv),
                          lambda c: c == 0)
        if code == 0:
            texts[name] = _read(argv[-1])
            rnd.expect(f"cli.{name}.artifact",
                       lambda: x.checks[name](json.loads(texts[name])))
    # re-render the largest artifact: the text must come back byte for byte
    largest = max(texts, key=lambda k: len(texts[k]), default=None)
    doc = json.loads(texts[largest]) if largest else {}
    rnd.op("cli.render",
           lambda: lab.cli.render_json(doc["subcommand"], doc["parameters"],
                                       doc["metadata"], doc["rows"],
                                       doc["checks"], doc["passed"]),
           lambda text: text == texts[largest])
    return {}


WORKLOADS = {
    "weak-residual": (weak_setup, weak_run),
    "lattice-solve": (lattice_setup, lattice_run),
    "cli-sweep": (cli_setup, cli_run),
}
