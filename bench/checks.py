"""Exactness gates, run on each job's output outside the timed region.

- ``eval``: the reduced histogram equals ``eval_naive``'s where its residue
  grid fits ``NAIVE_GRID_CAP``; beyond that, for ``--phi`` jobs and for
  ``--method naive`` jobs, it equals this file's own blockwise grid count
  (numpy, split into independent groups of variables, so no large grid is
  ever held).
- ``decay``: ``x1^2`` and ``x1;x2^2`` sweeps match the Gauss closed form
  ``p^(-m/2)`` within the reported ``sup_error``; other r=1 maps match the
  FFT of their value counts.
- ``fourier-check``: ``is_zero`` is true.
- ``density``: the counts total ``p^((m+B)n)``; a job run below its grid
  budget (the recursive fallback) equals a ``strategy="naive"`` recount.

Each gate returns ``None`` when the output is right and a message otherwise.
Besides the program's own oracles named above, the gates use only its
parsers and ``PhaseHistogram`` (to put histograms in canonical form).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from jobs import Job
from padicsums.cli import parse_phi, parse_y_vector
from padicsums.expsum import EvalRequest, eval_naive
from padicsums.padic import PhaseHistogram, PrimeContext
from padicsums.polymap import infer_variable_count, parse_polymap
from padicsums.singular import count_fibers

NAIVE_GRID_CAP = 5_000_000

#: Points per numpy block of the grid count; bounds its memory to ~50 MB.
BLOCK_POINTS = 1 << 20

#: Absolute slack for float results recomputed here by FFT.
FFT_TOL = 1e-9

#: Maps whose every level-m supremum is the Gauss sum modulus p^(-m/2).
GAUSS_MAPS = ("x1^2", "x1;x2^2")


def check(job: Job, out: str) -> str | None:
    if job.command == "eval":
        return _check_eval(job, json.loads(out))
    if job.command == "decay":
        return _check_decay(job, json.loads(out[out.index("{"):]))
    if job.command == "fourier-check":
        return None if json.loads(out)["is_zero"] is True else "fourier residual is not zero"
    if job.command == "density":
        return _check_density(job, out)
    raise ValueError(f"no gate for {job.command!r}")


# ----------------------------------------------------------------------- eval


def _valuation(q: Fraction, p: int) -> int:
    # Kept apart from padic.valuation so that a fault there cannot hide itself.
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _check_eval(job: Job, payload: dict) -> str | None:
    p = job.prime
    n = infer_variable_count(job.map)
    f = parse_polymap(job.map, n)
    ys = list(parse_y_vector(job.y))
    phi = parse_phi(job.phi, n)
    phase = {}
    for yj, comp in zip(ys, f.components):
        for exp, c in comp.items():
            phase[exp] = phase.get(exp, Fraction(0)) + yj * c
    phase = {exp: c for exp, c in phase.items() if c}
    level = max([0] + [-_valuation(c, p) for c in phase.values()])
    if job.method != "naive" and job.phi is None and p ** (level * n) <= NAIVE_GRID_CAP:
        ref = eval_naive(EvalRequest.of(f, ys, PrimeContext(p, NAIVE_GRID_CAP)))
        expected = ref.histogram.reduced()
    else:
        # eval_naive walks the balls of phi with the same code as the
        # recursive evaluator, so weighted jobs are counted here instead.
        mod = p**level
        # exp(2 pi i g(x)) only depends on p**level * g(x) mod p**level.
        ints = {
            exp: _residue(c * mod, mod)
            for exp, c in phase.items()
            if _valuation(c * mod, p) < level
        }
        expected = PhaseHistogram.zero(p)
        for ball in phi.terms:
            if ball.k > level or any(_valuation(c, p) < 0 for c in ball.center if c):
                raise ValueError("the grid count needs balls inside Z_p^n, no finer than p**level")
            step = p**ball.k
            axes = [(_residue(c, mod) + step * np.arange(mod // step)) % mod for c in ball.center]
            counts = grid_counts(ints, axes, mod)
            expected = expected + PhaseHistogram(
                p, level, {k: int(c) for k, c in enumerate(counts) if c}, ball.weight / mod**n
            )
        expected = expected.reduced()
    got = PhaseHistogram.from_json_dict(payload["histogram"])
    if got.to_json_dict() != expected.to_json_dict():
        return f"histogram {got.to_json_dict()} != reference {expected.to_json_dict()}"
    return None


def _residue(q: Fraction, mod: int) -> int:
    """The p-adic integer q mod ``mod``."""
    return q.numerator * pow(q.denominator, -1, mod) % mod if mod > 1 else 0


def grid_counts(poly: dict, axes: list[np.ndarray], mod: int) -> np.ndarray:
    """counts[v] = #{x in axes[0] x ... x axes[n-1] : poly(x) = v mod mod}.

    ``axes[i]`` holds the residues mod ``mod`` that x_i runs over.  Variables
    that share no monomial are counted apart and their count vectors
    combined by cyclic convolution, so a separable map never needs its full
    grid.
    """
    n = len(axes)
    if mod >= 2**31:
        raise ValueError("int64 products need mod < 2**31")
    groups: list[set[int]] = []
    for exp in poly:
        used = {i for i, e in enumerate(exp) if e}
        joined = [g for g in groups if g & used]
        for g in joined:
            groups.remove(g)
            used |= g
        if used:
            groups.append(used)
    counts = np.zeros(mod, dtype=np.int64)
    free = set(range(n)).difference(*groups)
    counts[poly.get((0,) * n, 0) % mod] = math.prod(len(axes[i]) for i in free)
    for group in groups:
        idx = sorted(group)
        sub = {
            tuple(exp[i] for i in idx): c
            for exp, c in poly.items()
            if any(exp[i] for i in idx)
        }
        part = _block_counts(sub, [axes[i] for i in idx], mod)
        full = np.convolve(counts, part)
        counts = full[:mod].copy()
        counts[: len(full) - mod] += full[mod:]
    return counts


def _block_counts(poly: dict, axes: list[np.ndarray], mod: int) -> np.ndarray:
    n = len(axes)
    powers: dict[tuple[int, int], np.ndarray] = {}

    def power(i: int, e: int) -> np.ndarray:
        if (i, e) not in powers:
            powers[i, e] = np.ones_like(axes[i]) if e == 0 else power(i, e - 1) * axes[i] % mod
        return powers[i, e]

    # Per monomial: x1's powers and the coefficient times the other
    # variables' powers over their full grid.
    rest = []
    for exp, c in poly.items():
        term = np.full((1,) * (n - 1), c % mod, dtype=np.int64)
        for i in range(1, n):
            if exp[i]:
                shape = [-1 if j == i - 1 else 1 for j in range(n - 1)]
                term = term * power(i, exp[i]).reshape(shape) % mod
        rest.append((power(0, exp[0]), term))
    rest_shape = tuple(len(a) for a in axes[1:])
    counts = np.zeros(mod, dtype=np.int64)
    block = max(1, BLOCK_POINTS // math.prod(rest_shape))
    for start in range(0, len(axes[0]), block):
        acc = None
        for x1, term in rest:
            val = x1[start : start + block].reshape((-1,) + (1,) * (n - 1)) * term % mod
            acc = val if acc is None else (acc + val) % mod
        acc = np.broadcast_to(acc, (min(block, len(axes[0]) - start),) + rest_shape)
        counts += np.bincount(acc.ravel(), minlength=mod)
    return counts


# ---------------------------------------------------------------------- decay


def _check_decay(job: Job, payload: dict) -> str | None:
    p = job.prime
    records = payload["records"]
    if job.map in GAUSS_MAPS:
        for rec in records:
            expected = p ** (-rec["m"] / 2)
            if abs(rec["sup"] - expected) > rec["sup_error"]:
                return f"m={rec['m']}: sup {rec['sup']!r} != p^(-m/2) = {expected!r}"
        if not math.isclose(payload["fit"]["alpha_hat"], -0.5, abs_tol=1e-9):
            return f"fitted exponent {payload['fit']['alpha_hat']!r} of p^(-m/2) is not -1/2"
        return None
    n = infer_variable_count(job.map)
    f = parse_polymap(job.map, n)
    if f.r != 1 or any(c.denominator != 1 for c in f.components[0].values()):
        raise ValueError("the FFT gate handles integral r=1 maps only")
    for rec in records:
        m = rec["m"]
        mod = p**m
        poly = {exp: int(c) % mod for exp, c in f.components[0].items()}
        axes = [np.arange(mod, dtype=np.int64)] * n
        mags = np.abs(np.fft.fft(grid_counts(poly, axes, mod))) / float(mod) ** n
        units = np.arange(mod) % p != 0
        best = float(mags[units].max())
        tol = rec["sup_error"] + FFT_TOL
        if rec["exact_zero"]:
            if rec["exhaustive"] and best > tol:
                return f"m={m}: reported exact zero, FFT sup is {best!r}"
            continue
        if rec["exhaustive"]:
            if abs(rec["sup"] - best) > tol:
                return f"m={m}: sup {rec['sup']!r} != FFT sup {best!r}"
        else:
            (u,) = rec["argmax_u"]
            if abs(rec["sup"] - mags[u]) > tol or rec["sup"] > best + tol:
                return f"m={m}: sampled sup {rec['sup']!r} at u={u} disagrees with FFT"
    return None


# -------------------------------------------------------------------- density


def _check_density(job: Job, out: str) -> str | None:
    p = job.prime
    n = infer_variable_count(job.map)
    f = parse_polymap(job.map, n)
    clear = max(
        [0] + [-_valuation(c, p) for comp in f.components for c in comp.values()]
    )
    total = sum(int(row["N"]) for row in csv.DictReader(io.StringIO(out)))
    expected = p ** ((job.level + clear) * n)
    if total != expected:
        return f"fiber counts total {total}, expected p^((m+B)n) = {expected}"
    if expected > job.budget:
        recount = count_fibers(f, job.level, PrimeContext(p, expected), strategy="naive")
        buf = io.StringIO()
        recount.write_csv(buf)
        if buf.getvalue() != out:
            return "recursive fallback table differs from the naive recount"
    return None

