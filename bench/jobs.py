"""Job lists of the three benchmark workloads.

A job is one ``padicsums`` command line.  Fixed jobs are the same for every
seed; seeded jobs are drawn from ``random.Random(seed)`` in the style of
``tests/test_expsum.py::make_random_instance``.  The program only ever sees
the generated argv.  Every job passes ``--workers 1`` and an explicit
``--budget`` so neither the thread pool nor ``PADICSUMS_BUDGET`` can move the
numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from padicsums.polymap import coefficient_floor

#: Budget of every job that does not test the budget itself.
BUDGET = 10_000_000

#: Largest residue grid p**(M*n) that a seeded eval job may need, so that the
#: exactness gate can afford to re-evaluate it with ``eval_naive``.
SEEDED_GRID_CAP = 600_000

#: Largest direction count p**m and residue grid p**(m*n) of a seeded decay
#: map at its top level.
SEEDED_DECAY_DIRECTIONS_CAP = 3**7
SEEDED_DECAY_GRID_CAP = 200_000

SEEDED_EVAL_JOBS = 4
SEEDED_DECAY_JOBS = 3


@dataclass(frozen=True)
class Job:
    """One CLI invocation; the fields are exactly the flags it passes."""

    command: str
    prime: int
    map: str
    budget: int = BUDGET
    y: str | None = None
    level: int | None = None
    levels: str | None = None
    strategy: str | None = None
    seed: int | None = None
    method: str | None = None
    phi: str | None = None

    def argv(self) -> list[str]:
        # "--flag=value" keeps argparse from reading a leading '-' as a flag.
        argv = [
            self.command,
            f"--prime={self.prime}",
            f"--map={self.map}",
            "--workers=1",
            f"--budget={self.budget}",
        ]
        for flag, value in (
            ("y", self.y),
            ("level", self.level),
            ("levels", self.levels),
            ("strategy", self.strategy),
            ("seed", self.seed),
            ("method", self.method),
            ("phi", self.phi),
        ):
            if value is not None:
                argv.append(f"--{flag}={value}")
        return argv


CUBIC = "x1^3+x2^3+x1*x2"
THREE_VAR = "x1^2*x2+x3^3+x2"
#: The unit polydisc plus a negatively weighted ball inside it, around the
#: cubic's singular point: a ball around a smooth point would add exactly 0
#: at these levels, and an evaluator that dropped it would go unnoticed.
TWO_BALL_PHI = (
    '[{"center": ["0", "0"], "k": 0, "weight": "1"},'
    ' {"center": ["0", "0"], "k": 1, "weight": "-1/2"}]'
)


def eval_descent(seed: int) -> list[Job]:
    """Recursive ``eval`` jobs with large coset-descent trees; the grid and
    the sweep stay idle, so descent is ~95% of each job.

    The grid cap keeps the seeded jobs small: they sort below every fixed
    job but ``CUBIC`` at m=6, so the median job time is always drawn from
    the three jobs of similar cost at m=7, whatever the seed, and the tail
    from the two heaviest jobs, which cost the same.
    """
    fixed = [
        # The cubic's tree grows several-fold per level: 820 splits and
        # 6561 P2 leaves at m=7.
        Job("eval", 3, CUBIC, y="1/3^6"),
        Job("eval", 3, CUBIC, y="1/3^7"),
        Job("eval", 3, CUBIC, y="2/3^8"),
        # A quartic whose m=7 tree costs about as much as the cubic's.
        Job("eval", 3, "x1^4+x2^4+x1^2*x2", y="1/3^7"),
        # The same cubic at p=5: p^n = 25 children per split.
        Job("eval", 5, CUBIC, y="1/5^5"),
        # Three variables: ~20k coset nodes at m=6, the heaviest pure descent.
        Job("eval", 3, THREE_VAR, y="1/3^5"),
        Job("eval", 3, THREE_VAR, y="1/3^6"),
        # A unit multiple of y relabels phases but keeps the same tree.
        Job("eval", 3, THREE_VAR, y="2/3^6"),
        # Two balls of phi: one descent per ball after an affine substitution.
        Job("eval", 3, CUBIC, y="2/3^7", phi=TWO_BALL_PHI),
    ]
    rng = random.Random(seed)
    return fixed + [random_eval_job(rng) for _ in range(SEEDED_EVAL_JOBS)]


def decay_sweep(seed: int) -> list[Job]:
    """``decay`` jobs over the three ways a level sweep is evaluated.

    The jobs fall into three cost groups: the seeded sweeps (kept small by
    the direction cap), four r=1 sweeps at p=3 up to m=8, and three jobs of
    about twice their cost.  The median job time is then always drawn from
    the middle group and the tail from the top group, pooling the samples of
    several jobs, for any number of passes from 4 up.
    """
    fixed = [
        # r=1 exhaustive: one shared descent tree, then 42k small
        # reduced()/magnitude() calls over the unit directions.
        Job("decay", 5, "x1^2", levels="1..6"),
        Job("decay", 3, "x1^2", levels="1..8"),
        Job("decay", 3, "x1^3", levels="1..8"),
        Job("decay", 3, "x1^4", levels="1..8"),
        Job("decay", 3, "x1^3+x1^4", levels="1..8"),
        # r=2 exhaustive: a separate descent for each of 728 directions at m=3.
        Job("decay", 3, "x1;x2^2", levels="1..3"),
        # Sampled directions: per-direction descent on an r=1 map; the seed
        # only picks the directions, and every unit shares one tree shape.
        Job("decay", 3, "x1^3+x2^2", levels="1..5", strategy="sample:48", seed=seed),
    ]
    rng = random.Random(seed)
    return fixed + [random_decay_job(rng) for _ in range(SEEDED_DECAY_JOBS)]


def density_grid(seed: int) -> list[Job]:
    """Residue-grid jobs (numpy grid, ``np.unique``, fiber loops) on
    1e5..5e6 points, plus one recursive fallback; the seed is not used."""
    del seed
    return [
        # 4.8M points, 2187 fibers.
        Job("density", 3, "x1^3+x2^2", level=7),
        # p=2, three variables, 2.1M points.
        Job("density", 2, "x1^2+x2^3+x3^4", level=7),
        # A p-power denominator: counted at level m+B = 7.
        Job("density", 3, "1/3*x1^2+x2^3", level=6),
        # r=2 fibers keyed by pairs, 59k points.
        Job("density", 3, "x1^2-x2^3;x1*x2", level=5),
        # Fourier regrouping: eval_naive plus count_fibers plus the exact
        # Fraction synthesis loop over 531k points.
        Job("fourier-check", 3, "x1^2+x2*x3;x1*x2+x3^3", y="1/3,2/9", level=4),
        Job("fourier-check", 5, "x1^3+x2^2", y="3/5^4", level=4),
        # The numpy phase grid of eval_naive.
        Job("eval", 3, CUBIC, y="1/3^7", method="naive"),
        Job("eval", 5, "x1^2*x2+x2^3", y="2/5^4", method="naive"),
        # Budget below the 3^10 grid: ``auto`` falls back to the recursive
        # fiber counter, ~80x slower than the grid at this size.
        Job("density", 3, "x1^3+x2^2", level=5, budget=1000),
    ]


WORKLOADS = {
    "eval-descent": eval_descent,
    "decay-sweep": decay_sweep,
    "density-grid": density_grid,
}


# ---------------------------------------------------------------- seeded maps


def _unit(rng: random.Random, p: int) -> int:
    unit = rng.choice((1, 2, -1, 4, 7))
    while unit % p == 0:
        unit += 1
    return unit


def _random_poly(rng: random.Random, p: int, n: int, shifts: tuple[int, ...]) -> dict:
    """2..4 draws of a monomial of total degree 1..4 with coefficient
    unit * p**k; a repeated monomial keeps its last coefficient."""
    poly: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(2, 4)):
        exp = (0,) * n
        while not 1 <= sum(exp) <= 4:
            exp = tuple(rng.randint(0, 3) for _ in range(n))
        poly[exp] = Fraction(_unit(rng, p)) * Fraction(p) ** rng.choice(shifts)
    return poly


def poly_text(poly: dict) -> str:
    parts = []
    for exp, coef in sorted(poly.items()):
        mono = "*".join(
            f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e
        )
        mag = abs(coef)
        body = mono if mag == 1 else f"{mag}*{mono}"
        parts.append(("-" if coef < 0 else "+") + body)
    return "".join(parts).lstrip("+")


def random_eval_job(rng: random.Random) -> Job:
    """n in {2, 3}, r in {1, 2}, frequency level 4..7, coefficient
    valuations -1..1; redrawn until the residue grid fits SEEDED_GRID_CAP."""
    while True:
        p = rng.choice((2, 3, 5))
        n = rng.choice((2, 3))
        r = rng.choice((1, 2))
        comps = [_random_poly(rng, p, n, (-1, 0, 0, 1)) for _ in range(r)]
        floor = coefficient_floor(comps, p)
        level = rng.randint(4, 7)
        if p ** ((level + floor) * n) > SEEDED_GRID_CAP:
            continue
        ys = []
        for j in range(r):
            e = level if j == 0 else rng.randint(1, level)
            u = rng.randrange(1, p**e)
            while u % p == 0:
                u = rng.randrange(1, p**e)
            ys.append(f"{u}/{p}^{e}")
        return Job("eval", p, ";".join(poly_text(c) for c in comps), y=",".join(ys))


def random_decay_job(rng: random.Random) -> Job:
    """An exhaustive level sweep of a random integral r=1 map in n in {1, 2}."""
    while True:
        p = rng.choice((3, 5))
        n = rng.choice((1, 2))
        top = rng.randint(3, 6)
        if p**top > SEEDED_DECAY_DIRECTIONS_CAP or p ** (top * n) > SEEDED_DECAY_GRID_CAP:
            continue
        poly = _random_poly(rng, p, n, (0, 0, 1))
        if all(sum(exp) == 1 for exp in poly):
            continue  # a linear map vanishes at every level: nothing to fit
        return Job("decay", p, poly_text(poly), levels=f"1..{top}")
