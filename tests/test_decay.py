import itertools
import random
from fractions import Fraction

import pytest

import padicsums.decay
import padicsums.expsum
from padicsums.decay import (
    ABS_SQUARE_CLASS_LIMIT,
    DecayRecord,
    _sample_directions,
    degree_bound_report,
    fit_alpha,
    primitive_direction_count,
    primitive_directions,
    sup_at_level,
    sweep_window,
)
from padicsums.errors import BudgetExceededError, ExactVanishingError, FitError
from padicsums.expsum import EvalRequest, Window, eval_naive, eval_recursive, eval_unit_directions
from padicsums.padic import PhaseHistogram, PrimeContext
from padicsums.polymap import PolyMap, SchwartzBruhat, coefficient_floor, parse_polymap, substitute_affine
from tests.test_expsum import make_random_sweep_instance, phase_poly

CTX3 = PrimeContext(3)
PHI1 = SchwartzBruhat.trivial(1)


def test_primitive_directions():
    dirs = list(primitive_directions(3, 1, 2))
    assert len(dirs) == primitive_direction_count(3, 1, 2) == 8
    assert (0, 1) in dirs and (1, 0) in dirs and (0, 0) not in dirs
    assert all(any(c % 3 for c in u) for u in dirs)
    assert dirs == sorted(dirs)


def test_sup_square_map_all_directions_tie():
    f = parse_polymap("x1^2", 1)
    rec = sup_at_level(f, PHI1, 2, "exhaustive", CTX3)
    assert abs(rec.sup - 1 / 3) < 1e-12
    assert rec.argmax == (1,)  # lex-smallest among the six tied directions
    assert rec.exhaustive and not rec.exact_zero
    assert rec.sup_square == Fraction(1, 9)


def test_sup_linear_map_vanishes():
    f = parse_polymap("x1", 1)
    for m in (1, 2, 3):
        rec = sup_at_level(f, PHI1, m, "exhaustive", CTX3)
        assert rec.exact_zero and rec.sup == 0.0 and rec.argmax is None


def test_sup_constant_map():
    f = parse_polymap("5", 1)
    rec = sup_at_level(f, PHI1, 1, "exhaustive", CTX3)
    assert abs(rec.sup - 1.0) <= rec.sup_error + 1e-12


def test_sup_budget_guard():
    ctx = PrimeContext(3, naive_budget=4)
    f = parse_polymap("x1^2", 1)
    with pytest.raises(BudgetExceededError):
        sup_at_level(f, PHI1, 2, "exhaustive", ctx)


def test_sup_budget_states_the_direction_count_while_it_is_short():
    ctx = PrimeContext(3, naive_budget=4)
    f = parse_polymap("x1^2", 1)
    # 3^(m-1) already passes the budget at m = 4, but the count 54 is short
    for m, needed in ((2, 6), (4, 54), (47, 3**47 - 3**46), (200, None)):
        with pytest.raises(BudgetExceededError) as exc:
            sup_at_level(f, PHI1, m, "exhaustive", ctx)
        assert exc.value.needed == needed


def test_sampled_sup_below_exhaustive():
    f = parse_polymap("x1^3 + x1^2", 1)
    for m in (2, 3):
        full = sup_at_level(f, PHI1, m, "exhaustive", CTX3)
        sampled = sup_at_level(f, PHI1, m, ("sample", 5, 42), CTX3)
        assert not sampled.exhaustive
        assert sampled.sup <= full.sup + 1e-12


def test_sample_strategy_is_seeded():
    f = parse_polymap("x1^3 + x1^2", 1)
    a = sup_at_level(f, PHI1, 3, ("sample", 10, 7), CTX3)
    b = sup_at_level(f, PHI1, 3, ("sample", 10, 7), CTX3)
    assert (a.sup, a.argmax) == (b.sup, b.argmax)


def _reference_record(f, phi, m, strategy, ctx):
    """sup_at_level by one eval_recursive per direction and the
    first-strict-max rule, with no sharing between directions."""
    p = ctx.p
    exhaustive = strategy == "exhaustive"
    if exhaustive:
        directions = primitive_directions(p, m, f.r)
    else:
        _, count, seed = strategy
        directions = _sample_directions(p, m, f.r, count, seed)
    best = None
    for u in directions:
        y = [Fraction(c, p**m) for c in u]
        hist = eval_recursive(EvalRequest.of(f, y, ctx, phi)).histogram.reduced()
        if not hist.counts:
            continue
        mag, err = hist.magnitude()
        if best is None or mag > best[0]:
            best = (mag, err, u, hist)
    if best is None:
        return DecayRecord(m, 0.0, 0.0, None, exhaustive, True, Fraction(0))
    mag, err, u, hist = best
    square = hist.abs_square().exact_rational() if len(hist.counts) <= ABS_SQUARE_CLASS_LIMIT else None
    return DecayRecord(m, mag, err, u, exhaustive, False, square)


def test_sup_at_level_matches_per_direction_reference():
    rng = random.Random(108)
    for i in range(60):
        f, phi, m, ctx = make_random_sweep_instance(rng)
        strategy = "exhaustive" if i % 2 else ("sample", rng.randint(1, 20), rng.randint(0, 99))
        got = sup_at_level(f, phi, m, strategy, ctx)
        assert got == _reference_record(f, phi, m, strategy, ctx), (f, phi, m, ctx.p, strategy)
    # r = 2 sweeps each level's integerized balls
    for i in range(16):
        f, phi, m, ctx = make_random_sweep_instance(rng, r=2)
        strategy = "exhaustive" if i % 2 else ("sample", rng.randint(1, 20), rng.randint(0, 99))
        got = sup_at_level(f, phi, m, strategy, ctx)
        assert got == _reference_record(f, phi, m, strategy, ctx), (f, phi, m, ctx.p, strategy)
    f = parse_polymap("x1^2 + x1; x1^3", 1)
    for strategy in ("exhaustive", ("sample", 12, 3)):
        assert sup_at_level(f, PHI1, 2, strategy, CTX3) == _reference_record(f, PHI1, 2, strategy, CTX3)


def _clears_early(f, phi, u, m, p):
    """Whether u's phase on some ball of phi clears below m + B, the level
    at which the sweep walks that ball: the rational-phase reference would
    walk it at a smaller modulus."""
    g = phase_poly(EvalRequest.of(f, [Fraction(c, p**m) for c in u], PrimeContext(p), phi))
    for ball in phi.terms:
        step = Fraction(p) ** ball.k
        parts = [substitute_affine(c, ball.center, step, f.n, 10**6) for c in f.components]
        if coefficient_floor([substitute_affine(g, ball.center, step, f.n, 10**6)], p) < m + coefficient_floor(parts, p):
            return True
    return False


def test_multi_component_sweep_matches_per_direction_eval():
    """Every histogram the r >= 2 sweep yields, direction by direction, is
    the reduced eval_recursive at y = u/p**m: exhaustive and sampled levels
    (repeats included) of random maps with p-power denominators and
    several-ball weights, r in {2, 3}, p in {2, 3, 5}."""
    rng = random.Random(110)
    seen = {"directions": 0, "repeats": 0, "cleared early": 0, "ball outside Z_p": 0}
    covered = set()
    for i in range(24):
        r = 2 + i % 2
        f, phi, m, ctx = make_random_sweep_instance(rng, r=r)
        p = ctx.p
        if r == 3:
            m = 1
        if i % 3 == 0:  # more draws than directions, so repeats are certain
            directions = list(_sample_directions(p, m, r, 2 * p ** (m * r), rng.randint(0, 99)))
        else:
            directions = list(primitive_directions(p, m, r))
        swept = list(eval_unit_directions(f, phi, m, ctx, iter(directions)))
        assert [u for u, _ in swept] == directions
        for u, hist in swept:
            y = [Fraction(c, p**m) for c in u]
            direct = eval_recursive(EvalRequest.of(f, y, ctx, phi)).histogram.reduced()
            assert hist == direct, (f, phi, m, p, u)
            seen["cleared early"] += _clears_early(f, phi, u, m, p)
        covered.add((r, p))
        seen["directions"] += len(directions)
        seen["repeats"] += len(directions) - len(set(directions))
        seen["ball outside Z_p"] += any(c.denominator % p == 0 for ball in phi.terms for c in ball.center)
    assert seen["directions"] > 1000 and seen["repeats"] > 300, seen
    assert seen["cleared early"] > 200 and seen["ball outside Z_p"] >= 5, seen
    assert covered == {(r, p) for r in (2, 3) for p in (2, 3, 5)}

    # directions with u1 + u2 = 0 mod 3 clear one level below m + B = m on
    # the unit ball; a second ball centred outside Z_p
    f = parse_polymap("x1^2 + x2; x1^2 + 4*x2", 2)
    unit = SchwartzBruhat.trivial(2)
    two = SchwartzBruhat(2, unit.terms + SchwartzBruhat.ball([Fraction(1, 3), Fraction(2)], 1, Fraction(-2, 5)).terms)
    directions = [(1, 8), (2, 7), (1, 1), (0, 1), (1, 8)]
    assert [_clears_early(f, unit, u, 2, 3) for u in directions] == [True, True, False, False, True]
    for phi in (unit, two):
        for u, hist in eval_unit_directions(f, phi, 2, CTX3, directions):
            direct = eval_recursive(EvalRequest.of(f, [Fraction(c, 9) for c in u], CTX3, phi))
            assert hist == direct.histogram.reduced(), (phi, u)


def test_sweep_rejects_bad_directions():
    """At every r, a direction of the wrong length or with no unit
    coordinate is a ValueError, and so is a level its window lacks."""
    square = parse_polymap("x1^2", 1)
    pair = parse_polymap("x1; x1^2", 1)
    for f, bad in (
        (pair, [(1,)]), (pair, [(2,), (1,)]), (pair, [(3, 6)]), (pair, [(1, 2, 1)]),
        (square, [(1, 5)]), (square, [(4, 0, 0)]), (square, [(2,), (1, 5)]),
        (square, [(1, 5), (2,), (4, 0, 0)]), (square, [(3,)]), (square, [()]),
    ):
        with pytest.raises(ValueError):
            list(eval_unit_directions(f, PHI1, 2, CTX3, bad))
    for f in (square, pair):  # a level outside the window it is handed
        with pytest.raises(ValueError, match="not in the window"):
            list(eval_unit_directions(f, PHI1, 3, CTX3, None, Window(f, PHI1, (1, 2), CTX3)))


def test_sweep_none_streams_every_primitive_direction():
    """For r >= 2, ``None`` streams primitive_directions(p, m, r), in order,
    with the histograms the explicit list gets."""
    for f, m in ((parse_polymap("x1; x1^2", 1), 2), (parse_polymap("x1^2 + x2; x1*x2; x2^3", 2), 1)):
        phi = SchwartzBruhat.trivial(f.n)
        expected = list(primitive_directions(3, m, f.r))
        swept = list(eval_unit_directions(f, phi, m, CTX3, None))
        assert [u for u, _ in swept] == expected
        assert swept == list(eval_unit_directions(f, phi, m, CTX3, expected))


def test_sup_at_level_measures_each_histogram_object_once(monkeypatch):
    """Sampled levels with repeats: r = 1 measures one magnitude per nonzero
    class of units drawn, since a class shares one histogram object; r = 2
    measures every nonzero draw, since each gets a fresh object and a fresh
    object may reuse a freed one's id."""
    calls = [0]
    magnitude = PhaseHistogram.magnitude

    def counted(self):
        calls[0] += 1
        return magnitude(self)

    rng = random.Random(115)
    instances = [make_random_sweep_instance(rng, r=r) for r in (1, 1, 1, 2, 2, 2)]
    instances.append((parse_polymap("x1^3", 1), PHI1, 5, CTX3))  # 162 units in 6 classes
    for f, phi, m, ctx in instances:
        p, r = ctx.p, f.r
        strategy = ("sample", 2 * p ** (m * r), rng.randint(0, 99))
        draws = list(_sample_directions(p, m, r, *strategy[1:]))
        if r == 1:
            base = eval_recursive(EvalRequest.of(f, [Fraction(1, p**m)], ctx, phi)).histogram.reduced()
            expected = len({u % p**base.level for (u,) in draws}) if base.counts else 0
        else:
            expected = sum(1 for _, hist in eval_unit_directions(f, phi, m, ctx, draws) if hist.counts)
        assert len(set(draws)) < len(draws)
        monkeypatch.setattr(PhaseHistogram, "magnitude", counted)
        calls[0] = 0
        got = sup_at_level(f, phi, m, strategy, ctx)
        assert calls[0] == expected, (f, phi, m, p, strategy)
        monkeypatch.setattr(PhaseHistogram, "magnitude", magnitude)
        assert got == _reference_record(f, phi, m, strategy, ctx), (f, phi, m, p, strategy)


def test_exhaustive_unit_level_visits_one_unit_per_class(monkeypatch):
    """An exhaustive r=1 level measures the ascending units below
    min(max(p**M', p), p**m), where M' is the level of the reduced
    E(1/p**m), though its budget counts all phi(p**m) units."""
    visits = []

    def counted(*args):
        for u, hist in eval_unit_directions(*args):
            visits.append(u)
            yield u, hist

    monkeypatch.setattr(padicsums.decay, "eval_unit_directions", counted)

    def visited(f, phi, m, ctx):
        visits.clear()
        sup_at_level(f, phi, m, "exhaustive", ctx)
        return visits

    cube = parse_polymap("x1^3", 1)
    # M' = 0: E(u/27) is 1/3 for each of the 18 units, and the stream is 1, 2
    assert visited(cube, PHI1, 3, CTX3) == [(1,), (2,)]
    # M' = 2 < m = 5: one unit per class mod 9, not 162 units
    assert visited(cube, PHI1, 5, CTX3) == [(1,), (2,), (4,), (5,), (7,), (8,)]
    # M' = 6 > m = 3 for a ball centred outside Z_p: every unit below 27
    ball = SchwartzBruhat.ball([Fraction(1, 3)], 0, 1)
    assert visited(parse_polymap("x1^2 + x1^3", 1), ball, 3, CTX3) == [
        (u,) for u in range(1, 27) if u % 3
    ]
    assert sup_at_level(cube, PHI1, 3, "exhaustive", PrimeContext(3, 18)).argmax == (1,)
    with pytest.raises(BudgetExceededError):
        sup_at_level(cube, PHI1, 3, "exhaustive", PrimeContext(3, 17))

    rng = random.Random(109)
    for _ in range(60):
        f, phi, m, ctx = make_random_sweep_instance(rng)
        p = ctx.p
        level = eval_recursive(EvalRequest.of(f, [Fraction(1, p**m)], ctx, phi)).histogram.reduced().level
        end = min(max(p**level, p), p**m)
        assert visited(f, phi, m, ctx) == [(u,) for u in range(1, end) if u % p], (f, phi, m, p)


def test_sampled_ties_go_to_the_first_drawn_direction():
    f = parse_polymap("x1^2", 1)
    strategy = ("sample", 5, 7)
    assert [u for (u,) in _sample_directions(3, 2, 1, 5, 7)] == [5, 2, 1, 8, 1]
    rec = sup_at_level(f, PHI1, 2, strategy, CTX3)
    assert rec.argmax == (5,)  # |E| is the same 1/3 at every unit
    assert rec.sup == sup_at_level(f, PHI1, 2, "exhaustive", CTX3).sup


def test_fit_alpha_square_is_exact_line():
    f = parse_polymap("x1^2", 1)
    records = [sup_at_level(f, PHI1, m, "exhaustive", CTX3) for m in range(1, 7)]
    fit = fit_alpha(records, f, CTX3)
    assert abs(fit.alpha_hat + 0.5) < 1e-9
    assert fit.residual < 1e-9
    assert fit.c_hat == 1.0
    assert fit.c_hat_square == 1
    assert fit.bound_exponent == -0.5
    assert fit.zero_levels == []


def test_fit_alpha_cubic_close_to_third():
    ctx5 = PrimeContext(5)
    f = parse_polymap("x1^3", 1)
    records = [sup_at_level(f, SchwartzBruhat.trivial(1), m, "exhaustive", ctx5) for m in range(1, 6)]
    fit = fit_alpha(records, f, ctx5)
    assert abs(fit.alpha_hat + 1 / 3) < 0.1
    # levels with exact vanishing are excluded and reported
    assert fit.zero_levels == [1, 4]


def test_fit_alpha_errors():
    f = parse_polymap("x1", 1)
    zero_records = [sup_at_level(f, PHI1, m, "exhaustive", CTX3) for m in (1, 2, 3)]
    with pytest.raises(ExactVanishingError):
        fit_alpha(zero_records, f, CTX3)

    g = parse_polymap("x1^2", 1)
    one = [sup_at_level(g, PHI1, 1, "exhaustive", CTX3)]
    with pytest.raises(FitError):
        fit_alpha(one, g, CTX3)


def test_window_restriction_and_monotone_c_hat():
    f = parse_polymap("x1^3", 1)
    records = [sup_at_level(f, PHI1, m, "exhaustive", CTX3) for m in range(1, 7)]
    c_values = []
    for hi in range(3, 7):
        usable = [r for r in records if r.level <= hi and not r.exact_zero]
        if len(usable) < 2:
            continue
        fit = fit_alpha(records[:hi], f, CTX3)
        c_values.append(fit.c_hat)
    assert all(a <= b + 1e-12 for a, b in zip(c_values, c_values[1:]))


def test_degree_bound_report_square():
    f = parse_polymap("x1^2", 1)
    records = [sup_at_level(f, PHI1, m, "exhaustive", CTX3) for m in range(1, 7)]
    rep = degree_bound_report(f, records, CTX3)
    assert rep.hypothesis_ok
    assert rep.verdict == "CONSISTENT"
    assert rep.c_hat == 1.0
    assert rep.d_max == 2
    assert all(abs(ratio - 1.0) < 1e-9 for _, ratio in rep.ratios)


def test_degree_bound_report_dependent_map_banner():
    f = parse_polymap("x1; x1+1", 1)
    records = [sup_at_level(f, SchwartzBruhat.trivial(1), m, "exhaustive", CTX3) for m in (1, 2)]
    rep = degree_bound_report(f, records, CTX3)
    assert not rep.hypothesis_ok
    assert any("HYPOTHESIS FAILED" in note for note in rep.notes)


def test_degree_bound_report_vacuous_for_linear():
    f = parse_polymap("x1", 1)
    records = [sup_at_level(f, PHI1, m, "exhaustive", CTX3) for m in range(1, 5)]
    rep = degree_bound_report(f, records, CTX3)
    assert rep.verdict == "VACUOUS"
    assert any("exactly zero" in note for note in rep.notes)


def test_degree_bound_report_constant_map():
    f = parse_polymap("5", 1)
    records = [sup_at_level(f, PHI1, m, "exhaustive", CTX3) for m in (1, 2)]
    rep = degree_bound_report(f, records, CTX3)
    assert not rep.hypothesis_ok  # constants are affinely dependent
    assert abs(rep.alpha_hat) < 1e-12
    assert rep.bound_exponent is None
    assert any("constant" in note for note in rep.notes)


def test_exhaustive_sup_for_two_component_map():
    f = parse_polymap("x1; x1^2", 1)
    rec = sup_at_level(f, PHI1, 1, "exhaustive", CTX3)
    assert not rec.exact_zero
    # oracle: directions with unit second coordinate give |Gauss sum|/3,
    # directions (u, 0) vanish; max is 3^{-1/2}
    assert abs(rec.sup - 3**-0.5) < 1e-12


def test_decay_record_json():
    rec = DecayRecord(2, 0.5, 1e-15, (1, 2), True, False, Fraction(1, 4))
    d = rec.to_json_dict()
    assert d["m"] == 2 and d["argmax_u"] == [1, 2] and d["sup_square"] == "1/4"


def _window_instance(rng):
    """(f, phi, m0, m1, ctx): an r = 1 map in n <= 2 variables over p in
    {2, 3, 5}, integral or with p-power denominators, under the unit
    polydisc, a ball centred off it or a ball with k < 0, and a window of
    1..6 levels whose deepest residue grid stays small."""
    while True:
        p = rng.choice((2, 3, 5))
        n = rng.choice((1, 2))
        poly = {}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            if 0 < sum(exp) <= 4:
                poly[exp] = Fraction(rng.choice((1, 2, -1, 4)), p ** rng.choice((0, 0, 0, 1)))
        if not poly:
            continue
        f = PolyMap(n, (poly,))
        shape = rng.choice(("unit", "off-centre", "k<0", "two balls"))
        center = [Fraction(rng.randint(-2, 2), rng.choice((1, p))) for _ in range(n)]
        if shape == "unit":
            phi = SchwartzBruhat.trivial(n)
        elif shape == "off-centre":
            phi = SchwartzBruhat.ball(center, rng.randint(0, 1), rng.choice((1, Fraction(-1, 2))))
        elif shape == "k<0":
            phi = SchwartzBruhat.ball(center, -1, 3)
        else:
            phi = SchwartzBruhat(n, SchwartzBruhat.trivial(n).terms + SchwartzBruhat.ball(center, 1, -2).terms)
        m1 = rng.randint(1, 6)
        m0 = rng.choice((1, rng.randint(max(1, m1 - 5), m1)))
        ctx = PrimeContext(p, 10**6)
        clears = [level - m1 for level, *_ in Window(f, phi, (m1,), ctx).balls()]
        if p ** ((m1 + max(clears)) * n) <= 3**9:
            return f, phi, m0, m1, ctx, shape, max(clears)


def test_window_levels_equal_one_level_sweeps_and_the_grid():
    """Every level of an r = 1 window, read off one walk at its deepest
    level, is E(1 / p**m) as a one-level window and ``eval_naive`` find it;
    the records of ``sweep_window``, exhaustive and sampled, are those of
    ``sup_at_level`` one level at a time."""
    rng = random.Random(124)
    seen = {"levels": 0, "B > 0": 0, "denominators": 0, "six levels": 0, "nonzero": 0}
    covered = set()
    for i in range(150):
        f, phi, m0, m1, ctx, shape, clear = _window_instance(rng)
        p = ctx.p
        window = Window(f, phi, range(m0, m1 + 1), ctx)
        for m in range(m0, m1 + 1):
            hist = window.unit_base(m)
            assert hist == Window(f, phi, (m,), ctx).unit_base(m), (f, phi, m0, m1, m)
            naive = eval_naive(EvalRequest.of(f, [Fraction(1, p**m)], ctx, phi)).histogram.reduced()
            assert hist == naive, (f, phi, m0, m1, m)
            seen["levels"] += 1
            seen["nonzero"] += bool(hist.counts)
        strategy = "exhaustive" if i % 2 else ("sample", rng.randint(1, 12), rng.randint(0, 99))
        levels = range(m0, m1 + 1)
        assert sweep_window(f, phi, levels, strategy, ctx) == [
            sup_at_level(f, phi, m, strategy, ctx) for m in levels
        ], (f, phi, m0, m1, strategy)
        seen["B > 0"] += clear > 0
        seen["denominators"] += any(c.denominator > 1 for c in f.components[0].values())
        seen["six levels"] += m1 - m0 == 5
        covered.add((p, f.n, shape))
    assert seen["levels"] >= 300 and seen["nonzero"] >= 150, seen
    assert seen["B > 0"] >= 50 and seen["denominators"] >= 25 and seen["six levels"] >= 8, seen
    assert {(p, n) for p, n, _ in covered} == {(p, n) for p in (2, 3, 5) for n in (1, 2)}, covered
    assert {shape for *_, shape in covered} == {"unit", "off-centre", "k<0", "two balls"}, covered


def test_a_unit_window_integerizes_each_ball_once_and_walks_once(monkeypatch):
    """An r = 1 window of several levels calls ``_ball_images`` once per
    ball and walks once per ball and variable group, all at its deepest
    level, with the splits of ``eval`` at y = 1 / p**m1."""
    images, walks = [], []
    ball_images, collect_leaves = padicsums.expsum._ball_images, padicsums.expsum._collect_leaves

    def counted_images(*args):
        images.append(args)
        return ball_images(*args)

    def counted_walk(g, levels, *args):
        counts, stats = collect_leaves(g, levels, *args)
        walks.append((levels, stats))
        return counts, stats

    monkeypatch.setattr(padicsums.expsum, "_ball_images", counted_images)
    monkeypatch.setattr(padicsums.expsum, "_collect_leaves", counted_walk)
    two_balls = SchwartzBruhat(2, SchwartzBruhat.trivial(2).terms + SchwartzBruhat.ball([1, Fraction(1, 3)], 1, -1).terms)
    cases = [
        (parse_polymap("x1^3 + x1^4", 1), PHI1, 1, 8, "exhaustive", 1),
        (parse_polymap("x1^2 + x2^3", 2), two_balls, 2, 5, "exhaustive", 4),
        (parse_polymap("x1^3 + x2^2", 2), SchwartzBruhat.trivial(2), 1, 5, ("sample", 48, 1), 2),
    ]
    for f, phi, m0, m1, strategy, walked in cases:
        images.clear()
        walks.clear()
        sweep_window(f, phi, range(m0, m1 + 1), strategy, CTX3)
        assert len(images) == len(phi.terms) and len(walks) == walked
        assert {len(levels) for levels, _ in walks} == {m1 - m0 + 1}
        splits = sum(stats.splits for _, stats in walks)
        walks.clear()
        result = eval_recursive(EvalRequest.of(f, [Fraction(1, 3**m1)], CTX3, phi))
        assert len(walks) == walked and splits == result.stats.splits > 0


def _plan_window_instance(rng, r):
    """(f, phi, levels, ctx, shape): an r-component map over p in {2, 3, 5}
    whose components share monomials, with coefficients that are units,
    multiples of p or over p, so that sum_j u_j G_j loses or keeps a
    monomial as u and the level vary; phi is the unit polydisc, one ball
    of weight other than 1, or two weighted balls; the window has 2 or 3
    levels."""
    p = rng.choice((2, 3, 5))
    n = rng.choice((2, 3))
    pool = [exp for exp in itertools.product(range(3), repeat=n) if 0 < sum(exp) <= 3]
    shared = rng.sample(pool, 3)
    components = []
    for _ in range(r):
        comp = {}
        for exp in rng.sample(shared, rng.randint(1, 3)):
            comp[exp] = Fraction(rng.choice((1, 2, -1, 4))) * Fraction(p) ** rng.choice((0, 0, 1, -1))
        components.append(comp)
    shape = rng.choice(("unit", "weighted ball", "two balls"))
    center = [Fraction(rng.randint(-2, 2), rng.choice((1, p))) for _ in range(n)]
    if shape == "unit":
        phi = SchwartzBruhat.trivial(n)
    elif shape == "weighted ball":
        phi = SchwartzBruhat.ball(center, rng.randint(0, 1), rng.choice((-1, Fraction(3, 2))))
    else:
        phi = SchwartzBruhat(n, SchwartzBruhat.trivial(n).terms + SchwartzBruhat.ball(center, 1, Fraction(-2, 3)).terms)
    levels = (1, 2, 3) if (p, r) == (2, 2) else (1, 2)
    return PolyMap(n, tuple(components)), phi, levels, PrimeContext(p, 10**6), shape


def test_multi_component_windows_share_group_plans_exactly(monkeypatch):
    """Every histogram an r >= 2 window yields is the reduced eval_recursive
    at y = u/p**m, and every record is ``_reference_record``'s, while the
    window's levels share one group plan per support: windows of 2-3
    levels, r in {2, 3}, p in {2, 3, 5}, the unit polydisc, one weighted
    ball and two balls, exhaustive and sampled streams, repeats included.
    The supports, and so the variable groups, change with u and with the
    level."""
    walked = []  # (support, plan) of each walk the window's sweep makes
    split_walk = padicsums.expsum._split_walk

    def spy(g, levels, mod, n, p, budget, plan=None):
        walked.append((frozenset(g), plan))
        return split_walk(g, levels, mod, n, p, budget, plan)

    monkeypatch.setattr(padicsums.expsum, "_split_walk", spy)

    def swept(f, phi, m, ctx, directions, window):
        """The stream of one level, and the (support, plan) of each walk."""
        walked.clear()
        out = list(eval_unit_directions(f, phi, m, ctx, directions, window))
        plans = list(walked)
        for u, hist in out:
            y = [Fraction(c, ctx.p**m) for c in u]
            assert hist == eval_recursive(EvalRequest.of(f, y, ctx, phi)).histogram.reduced(), (f, phi, m, u)
        return out, plans

    # u = (1, 1) cancels x1*x2 mod 3 but not mod 9: two groups at level 1, one at level 2
    f = parse_polymap("x1*x2+x1; 2*x1*x2+x2", 2)
    window = Window(f, SchwartzBruhat.trivial(2), (1, 2), CTX3)
    for m, sizes in ((1, [1, 1]), (2, [2])):
        _, plans = swept(f, window.phi, m, CTX3, [(1, 1)], window)
        assert [plan.sizes for _, plan in plans] == [sizes]

    rng = random.Random(126)
    seen = {"directions": 0, "repeats": 0, "supports vary with u": 0, "supports vary with m": 0}
    covered = set()
    for i in range(24):
        r = 2 + i % 2
        f, phi, levels, ctx, shape = _plan_window_instance(rng, r)
        p = ctx.p
        sampled = i % 3 == 0 or primitive_direction_count(p, levels[-1], r) > 80
        window = Window(f, phi, levels, ctx)
        supports_by_level, plans = [], {}
        for m in levels:
            if sampled:
                directions = list(_sample_directions(p, m, r, rng.randint(4, 16), rng.randint(0, 99)))
                seen["repeats"] += len(directions) - len(set(directions))
            else:
                directions = None
            out, walks = swept(f, phi, m, ctx, directions, window)
            seen["directions"] += len(out)
            for support, plan in walks:  # one plan per support in the whole window
                assert plans.setdefault(support, plan) is plan
            supports_by_level.append({support for support, _ in walks})
        seen["supports vary with u"] += any(len(level) > 1 for level in supports_by_level)
        seen["supports vary with m"] += len({frozenset(level) for level in supports_by_level}) > 1
        strategy = ("sample", rng.randint(4, 16), rng.randint(0, 99)) if sampled else "exhaustive"
        assert sweep_window(f, phi, levels, strategy, ctx) == [
            _reference_record(f, phi, m, strategy, ctx) for m in levels
        ], (f, phi, levels, p, strategy)
        covered.add((r, p, shape, sampled))
    assert seen["directions"] > 700 and seen["repeats"] > 20, seen
    assert seen["supports vary with u"] >= 20 and seen["supports vary with m"] >= 20, seen
    assert {(r, p) for r, p, *_ in covered} == {(r, p) for r in (2, 3) for p in (2, 3, 5)}, covered
    assert {shape for _, _, shape, _ in covered} == {"unit", "weighted ball", "two balls"}, covered
    assert {sampled for *_, sampled in covered} == {True, False}, covered


def test_a_multi_component_window_plans_each_support_once(monkeypatch):
    """``x1;x2^2`` at levels 1..3 sweeps 728 directions but has three
    supports, {x1, x2^2}, {x1} and {x2^2}, so ``_variable_groups`` runs three
    times; under the unit polydisc no mean is scaled; and every walk still
    runs: two groups for each of the 676 directions with u1 and u2 nonzero
    mod p**m, one for the other 52."""
    supports, calls = [], {"scaled": 0, "walks": 0}
    variable_groups, collect_leaves = padicsums.expsum._variable_groups, padicsums.expsum._collect_leaves
    scaled = PhaseHistogram.scaled

    def counted_groups(support, n):
        supports.append(frozenset(support))
        return variable_groups(support, n)

    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(padicsums.expsum, "_variable_groups", counted_groups)
    monkeypatch.setattr(padicsums.expsum, "_collect_leaves", counted("walks", collect_leaves))
    monkeypatch.setattr(PhaseHistogram, "scaled", counted("scaled", scaled))
    f = parse_polymap("x1; x2^2", 2)
    records = sweep_window(f, SchwartzBruhat.trivial(2), range(1, 4), "exhaustive", CTX3)
    assert len(supports) == len(set(supports)) == 3
    assert calls == {"scaled": 0, "walks": 2 * 676 + 52}
    assert [rec.sup_square for rec in records] == [Fraction(1, 3), Fraction(1, 9), Fraction(1, 27)]
