"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; exact assertions compare reduced
histograms or Fractions, never floats.
"""

import cmath
import contextlib
import io
import json
import math
import random
from fractions import Fraction

from padicsums.cli import main
from padicsums.decay import (
    degree_bound_report,
    fit_alpha,
    primitive_direction_count,
    primitive_directions,
    sup_at_level,
)
from padicsums.expsum import (
    EvalRequest,
    eval_naive,
    eval_recursive,
    eval_unit_directions,
)
from padicsums.padic import PhaseHistogram, PrimeContext, clearing_exponent
from padicsums.polymap import (
    PolyMap,
    SchwartzBruhat,
    check_affine_independence,
    coefficient_floor,
    infer_variable_count,
    parse_polymap,
)
from padicsums.singular import count_fibers, fourier_check, stabilization_probe
from tests.test_expsum import make_random_instance

BUDGET = 250_000


def criterion(num, description):
    def decorate(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {num}: {description}")
                raise
            print(f"[PASS] criterion {num}: {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@criterion(1, "Gauss-sum magnitudes p^(-m/2) for every primitive direction")
def test_criterion_1_gauss_closed_form():
    for p in (3, 5, 7):
        ctx = PrimeContext(p, BUDGET)
        f = parse_polymap("x1^2", 1)
        phi = SchwartzBruhat.trivial(1)
        for m in range(1, 7):
            expected = p ** (-m / 2)
            checked = 0
            units = list(primitive_directions(p, m, 1))
            for u, hist in eval_unit_directions(f, phi, m, ctx, units):
                mag, _ = hist.magnitude()
                assert abs(mag - expected) < 1e-10, (p, m, u, mag)
                checked += 1
            assert checked == (p - 1) * p ** (m - 1)
            # independent oracle: direct complex summation at small levels
            if m <= 3:
                mod = p**m
                for u in range(1, mod):
                    if u % p == 0:
                        continue
                    s = (
                        sum(
                            cmath.exp(2j * math.pi * (u * x * x % mod) / mod)
                            for x in range(mod)
                        )
                        / mod
                    )
                    assert abs(abs(s) - expected) < 1e-10, (p, m, u)


def _criterion2_instances():
    rng = random.Random(20240)
    return [make_random_instance(rng, budget=BUDGET) for _ in range(200)]


@criterion(2, "recursive evaluator reproduces brute force on 200 random instances")
def test_criterion_2_oracle_equivalence():
    for req in _criterion2_instances():
        naive = eval_naive(req).histogram.reduced()
        rec = eval_recursive(req).histogram.reduced()
        assert naive == rec, (req.f, [str(v) for v in req.y], req.ctx.p)


@criterion(3, "fiber-regrouping identity residual is exactly zero, 100 instances")
def test_criterion_3_fourier_identity():
    rng = random.Random(30303)
    done = 0
    while done < 100:
        req = make_random_instance(rng, max_level=3, budget=BUDGET)
        p, n = req.ctx.p, req.f.n
        level = clearing_exponent(req.y, p)
        m = min(max(level, 1), 3)
        if level > m:
            continue  # identity is only asserted for v(y) >= -m
        b = coefficient_floor(req.f.components, p)
        if (p ** (m + b)) ** n > BUDGET:
            continue
        residual = fourier_check(req.f, list(req.y), m, req.ctx)
        assert residual.is_zero(), (req.f, m)
        done += 1


@criterion(4, "linear map evaluates to the exact zero histogram at every level")
def test_criterion_4_exact_vanishing():
    for p in (2, 3, 5):
        ctx = PrimeContext(p, BUDGET)
        f = parse_polymap("x1", 1)
        phi = SchwartzBruhat.trivial(1)
        for m in range(1, 7):
            units = list(primitive_directions(p, m, 1))
            for u, hist in eval_unit_directions(f, phi, m, ctx, units):
                assert hist.counts == {} and hist.is_zero(), (p, m, u)
            if m <= 3:
                for u in range(1, p**m):
                    if u % p == 0:
                        continue
                    res = eval_naive(EvalRequest.of(f, [Fraction(u, p**m)], ctx))
                    assert res.histogram.reduced() == PhaseHistogram.zero(p)


@criterion(5, "fitted exponents match -1/d for pure powers; c_hat exactly 1 for d=2")
def test_criterion_5_decay_exponents():
    phi = SchwartzBruhat.trivial(1)
    for d in (2, 3):
        f = parse_polymap(f"x1^{d}", 1)
        for p in (3, 5):
            ctx = PrimeContext(p, BUDGET)
            records = [
                sup_at_level(f, phi, m, "exhaustive", ctx) for m in range(1, 7)
            ]
            fit = fit_alpha(records, f, ctx)
            assert abs(fit.alpha_hat - (-1 / d)) <= 0.1, (d, p, fit.alpha_hat)
            report = degree_bound_report(f, records, ctx)
            assert report.verdict == "CONSISTENT", (d, p, report)
            if d == 2:
                assert fit.c_hat == 1.0 and fit.c_hat_square == 1, (p, fit.c_hat)


@criterion(6, "fiber counts conserve mass and refine consistently, 50 random maps")
def test_criterion_6_mass_and_refinement():
    rng = random.Random(60606)
    done = 0
    while done < 50:
        req = make_random_instance(rng, max_level=0, budget=BUDGET)
        p, n = req.ctx.p, req.f.n
        comps = tuple(
            {e: Fraction(c.numerator) for e, c in comp.items()} or {(0,) * n: Fraction(1)}
            for comp in req.f.components
        )
        f = PolyMap(n, comps)
        ok_any = False
        for m in (1, 2):
            if (p ** (m + 1)) ** n > BUDGET:
                continue
            table = count_fibers(f, m, req.ctx)
            assert table.total() == p ** (m * n)
            finer = count_fibers(f, m + 1, req.ctx)
            mod = p**m
            coarse: dict = {}
            for key, c in finer.counts.items():
                ckey = tuple(int(z) % mod for z in key)
                coarse[ckey] = coarse.get(ckey, 0) + c
            keys = set(coarse) | {tuple(int(z) for z in k) for k in table.counts}
            for key in keys:
                assert coarse.get(key, 0) == p**n * table.counts.get(key, 0)
            ok_any = True
        if ok_any:
            done += 1


@criterion(7, "density stabilizes at regular values and is flagged otherwise")
def test_criterion_7_hensel_stabilization():
    ctx = PrimeContext(3, BUDGET)
    f = parse_polymap("x1^2", 1)

    regular = stabilization_probe(f, [1], (1, 4), ctx)
    assert regular.f_values == [Fraction(2)] * 4
    assert regular.stable and regular.full_rank

    critical = stabilization_probe(f, [0], (1, 4), ctx)
    brute = []
    for m in range(1, 5):
        mod = 3**m
        brute.append(Fraction(sum(1 for x in range(mod) if x * x % mod == 0)))
    assert critical.f_values == brute
    assert brute == [Fraction(3 ** (m // 2)) for m in range(1, 5)]
    assert not critical.stable
    assert not critical.full_rank


#: n <= 2, r <= 2, degree <= 3, affinely independent, nonconstant.
ALPHA_CATALOG = [
    "x1^2",
    "x1^3",
    "x1^2 + x1",
    "x1^3 + x1^2",
    "2*x1^2 + 3*x1",
    "x1^2 + x2^2",
    "x1*x2",
    "x1^2 + x2^3",
    "x1; x1^2",
    "x1; x2^2",
]


@criterion(8, "fitted decay exponent is negative across the map catalog")
def test_criterion_8_alpha_negative_catalog():
    p = 3
    ctx = PrimeContext(p, BUDGET)
    for text in ALPHA_CATALOG:
        n = infer_variable_count(text)
        f = parse_polymap(text, n)
        assert check_affine_independence(f), text
        phi = SchwartzBruhat.trivial(n)
        records = []
        for m in range(1, 6):
            if primitive_direction_count(p, m, f.r) <= 3000:
                strategy = "exhaustive"
            else:
                strategy = ("sample", 400, 1000 + m)
            records.append(sup_at_level(f, phi, m, strategy, ctx))
        fit = fit_alpha(records, f, ctx)
        assert fit.alpha_hat < 0, (text, fit.alpha_hat)


def _map_text(f: PolyMap) -> str:
    """f in the CLI's polynomial grammar."""

    def term(exp, c):
        mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exp) if e)
        return ("-" if c < 0 else "+") + (f"{abs(c)}*{mono}" if mono else str(abs(c)))

    return ";".join("".join(term(e, c) for e, c in comp.items()) for comp in f.components)


@criterion(9, "fresh evaluations serialize alike; --workers 1 and 8 print the same bytes")
def test_criterion_9_determinism_across_workers():
    instances = _criterion2_instances()

    def serialize():
        parts = []
        for req in instances:
            hist = eval_recursive(req).histogram
            parts += [json.dumps(h.to_json_dict()) for h in (hist, hist.reduced())]
        return "\n".join(parts).encode()

    assert serialize() == serialize()
    for req in instances[::20]:
        y = ",".join(str(v) for v in req.y)
        argv = ["eval", f"--prime={req.ctx.p}", f"--map={_map_text(req.f)}", f"--y={y}"]
        outs = []
        for workers in ("1", "8"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main([*argv, f"--budget={BUDGET}", f"--workers={workers}"]) == 0
            outs.append(out.getvalue().encode())
        assert outs[0] == outs[1] and outs[0]