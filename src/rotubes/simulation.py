"""Synthetic perturbation models and the coverage-rate experiment.

Three zero-mean, unit-variance error-process families drive the simulations:

  1. trigonometric: b1 sin(pi t / 2) + b2 cos(pi t / 2), smooth;
  2. normalized Gaussian-bump expansion with 10 coefficients, smooth;
  3. stationary Ornstein-Uhlenbeck (mean reversion 5, diffusion sqrt(10)),
     continuous but nowhere differentiable.

A variance modulation f_l (1, 4, or sin(4 pi t) + 1.5) scales each family so
that var = f_l(t)^2, and a mixing matrix correlates the three algebra
coordinates.  Curves are drawn as center(t) @ exp(a_t) with a_t the mixed,
sigma-scaled error vector.

All sampling is keyed off integer seeds: coordinate d of curve m draws from
default_rng(SeedSequence(key + (m,), spawn_key=(d,))), so results do not depend
on execution order.  _keyed_streams restates that seeding for a chunk of
replications (key + (r, m) for replication r) in one stacked pass, from which
the chunk's paths are drawn in one pass; tests/test_simulation.py checks both
against numpy and one replication at a time, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import gkf, so3, tubes
from .curves import DEFAULT_GRID, CurveSample, RotationCurve, TimeGrid
from .errors import SingularCovariance, _is_int, _is_real

MIXING_MATRICES = {
    1: np.eye(3),
    2: np.array([[1.0, 0.0, 0.0],
                 [0.5, 0.5, 0.0],
                 [1.0 / math.sqrt(3.0)] * 3]),
}

_OU_RATE = 5.0
_BUMP_CENTERS = np.arange(10) / 9.0
_BUMP_WIDTH = 0.2
_MODULATIONS = {1: np.ones_like, 2: lambda t: np.full_like(t, 4.0),      # f_l, keyed by l
                3: lambda t: np.sin(4.0 * np.pi * t) + 1.5}
_MAX_SIGMA = 1e150        # exp_so3 squares the angle: sigma = 1e300 overflows it
_CHUNK_POINTS = 2 ** 13   # sampled curve points per keyed pass of coverage_experiment

# SeedSequence's hash constants (numpy.random.bit_generator), PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK, _MASK128 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def modulation(l: int, t: np.ndarray) -> np.ndarray:
    """Variance modulation f_l; the processes satisfy var = f_l(t)^2."""
    if not (_is_int(l) and l in _MODULATIONS):
        raise ValueError(f"modulation l must be an integer in 1..3, got {l!r}")
    return _MODULATIONS[l](np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ErrorProcessSpec:
    """Selects family i, modulation l, mixing j and noise scale sigma."""

    i: int
    l: int
    j: int
    sigma: float

    def __post_init__(self):
        for name, field, top in (("family", "i", 3), ("modulation", "l", 3), ("mixing", "j", 2)):
            value = getattr(self, field)
            if not (_is_int(value) and 1 <= value <= top):
                raise ValueError(f"{name} {field} must be an integer in 1..{top}, got {value!r}")
            object.__setattr__(self, field, int(value))
        if not (_is_real(self.sigma) and 0.0 < self.sigma < math.inf):     # NaN fails too
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")
        object.__setattr__(self, "sigma", float(self.sigma))
        if self.sigma > _MAX_SIGMA:
            raise ValueError(f"sigma must be at most {_MAX_SIGMA:g}, got {self.sigma:g}")

    def label(self) -> str:
        return f"A({self.i},{self.l},{self.j},{self.sigma:g})"


@dataclass(frozen=True)
class CoverageReport:
    """Empirical simultaneous coverage of the center curve, per alpha."""

    spec: ErrorProcessSpec
    n: int
    reps: int
    alphas: tuple[float, ...]
    rates: tuple[float, ...]
    mc_stderr: tuple[float, ...]
    n_singular: int = 0
    seed: int | None = None


def _error_paths(i: int, l: int, grid: TimeGrid, rng,
                 lead_shape: tuple[int, ...] = ()) -> np.ndarray:
    """Stacked error paths of family i, modulation l, shape lead_shape + (K,).

    rng is a Generator drawing all paths in one call (step-major for the OU
    family), or an iterable of one per path in C order over lead_shape (which
    may hold a -1).  A vector draw yields the same numbers as scalar draws.
    """
    t = grid.t
    k = t.size
    width = (2, 10, k)[i - 1]
    if isinstance(rng, np.random.Generator):
        if i == 3:
            z = rng.standard_normal((k, *lead_shape)).transpose((*range(1, len(lead_shape) + 1), 0))
        else:
            z = rng.standard_normal(lead_shape + (width,))
        rows = z
    else:
        z = np.array([g.standard_normal(width) for g in rng]).reshape(lead_shape + (width,))
        # One vector-matrix product per path, so that a path does not depend on
        # how many are stacked with it: a stacked product rounds differently.
        rows = z[..., None, :]
    if i == 1:
        basis = np.stack([np.sin(0.5 * np.pi * t), np.cos(0.5 * np.pi * t)])
        raw = (rows @ basis).reshape(lead_shape + (k,))
    elif i == 2:
        bumps = np.exp(-((t[:, None] - _BUMP_CENTERS[None, :]) ** 2) / _BUMP_WIDTH)
        scale = np.sqrt(np.sum(bumps * bumps, axis=1))
        raw = (rows @ bumps.T).reshape(lead_shape + (k,)) / scale
    else:
        # Exact AR(1) transition of the stationary OU process; unit variance.
        decay = np.exp(-_OU_RATE * np.diff(t))
        innov = (np.sqrt(1.0 - decay ** 2) * z[..., 1:]).transpose((-1, *range(z.ndim - 1)))
        walk = np.empty((k,) + z.shape[:-1])
        walk[0] = z[..., 0]
        for step in range(k - 1):
            walk[step + 1] = decay[step] * walk[step] + innov[step]
        raw = walk.transpose((*range(1, walk.ndim), 0))
    return raw * modulation(l, t)


def _generating_paths(spec: ErrorProcessSpec, grid: TimeGrid, streams) -> np.ndarray:
    """Paths a_t, shape (N, K, 3): curve m mixes the sigma-scaled paths of streams 3m..3m + 2."""
    eps = _error_paths(spec.i, spec.l, grid, streams, (-1, 3))
    return np.swapaxes(MIXING_MATRICES[spec.j] @ (spec.sigma * eps), -1, -2)


def _hashmix(v, c, c_next):
    """SeedSequence's hashmix under c, advanced to c_next, of Python ints or uint32 arrays."""
    v = (v ^ c) * c_next & _MASK
    return v ^ v >> 16


def _mix(x, y):
    r = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
    return r ^ r >> 16


def _keyed_streams(key: tuple, n: int, reps: range | None = None):
    """Yields default_rng(SeedSequence(key + (m,), spawn_key=(d,))) for m < n, d < 3 (with
    reps: key + (r, m) for each r in reps), as one Generator re-stated to each stream's
    PCG64 state.  Key words that fill the pool are hashed once, as Python ints; r, m and d
    as uint32 arrays, one entry per stream."""
    words = []
    for v in key:
        if not isinstance(v, numbers.Integral):
            raise TypeError("seed must be integer")
        if v < 0:
            raise ValueError("expected non-negative integer")
        words += [int(v) >> s & _MASK for s in range(0, max(int(v).bit_length(), 1), 32)]
    if reps and not 0 <= min(reps[0], reps[-1]) <= max(reps[0], reps[-1]) <= _MASK:
        raise ValueError(f"replication indices must lie in [0, 2**32), got {reps}")
    r, m, d = np.indices((len(reps) if reps is not None else 1, n, 3), np.uint32).reshape(3, -1)
    entropy = words + ([] if reps is None else [np.array(reps, np.uint32)[r]]) + [m]
    entropy += [0] * (4 - len(entropy)) + [d]                   # pad run entropy, spawn key
    c = [a := _INIT_A] + [a := a * _MULT_A & _MASK for _ in range(4 * len(entropy))]
    pool = [_hashmix(w, c[i], c[i + 1]) for i, w in enumerate(entropy[:4])]
    for k, (src, dst) in enumerate(itertools.permutations(range(4), 2), start=4):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], c[k], c[k + 1]))
    pool, c = np.array(pool, np.uint32).reshape(4, -1), np.array(c, np.uint32)[:, None]
    for k in range(4, len(entropy)):            # each later word into all 4 pool words
        pool = _mix(pool, _hashmix(entropy[k], c[4 * k:4 * k + 4], c[4 * k + 1:4 * k + 5]))
    b = np.array([a := _INIT_B] + [a := a * _MULT_B & _MASK for _ in range(8)], np.uint32)
    out = _hashmix(np.tile(pool, (2, 1)), b[:-1, None], b[1:, None]).astype(np.uint64)
    s_hi, s_lo, q_hi, q_lo = out[0::2] | out[1::2] << 32    # generate_state(4, uint64)
    gen, pcg = np.random.default_rng(0), {}
    state = dict(bit_generator="PCG64", state=pcg, has_uint32=0, uinteger=0)
    for sh, sl, ih, il in zip(s_hi.tolist(), s_lo.tolist(), (q_hi << 1 | q_lo >> 63).tolist(),
                              (q_lo << 1 | 1).tolist()):       # inc = 2 * seq + 1 mod 2**128
        inc = ih << 64 | il
        pcg.update(state=((inc + (sh << 64 | sl)) * _PCG_MULT + inc) & _MASK128, inc=inc)
        gen.bit_generator.state = state
        yield gen


def sample_gp_sample(spec: ErrorProcessSpec, center: RotationCurve, grid: TimeGrid,
                     n: int, seed, reps: range | None = None):
    """N model curves plus their generating paths, shape (N, K, 3).

    seed is an integer or a key tuple of integers; curve m draws from the
    substreams keyed (seed..., m).  Given reps, a whole chunk of replications is
    seeded and drawn in one pass, and the result is one (sample, paths) pair per
    r in reps, curve m of sample r keyed (seed..., r, m): bit for bit the pair of
    sample_gp_sample(..., seed + (r,)).  Indices r must lie in [0, 2**32).
    """
    key = (seed,) if isinstance(seed, numbers.Integral) else tuple(seed)
    chunk = _generating_paths(spec, grid, _keyed_streams(key, n, reps))
    chunk = chunk.reshape((-1, n) + chunk.shape[1:])
    pairs = [(CurveSample(grid, center.values @ so3.exp_so3(p)), p) for p in chunk]
    return pairs if reps is not None else pairs[0]


def _check_design(n: int, reps: int) -> tuple[int, int]:
    if not (_is_int(reps) and reps >= 1):
        raise ValueError(f"need an integer reps: at least one replication, got {reps!r}")
    return tubes._check_n(n), int(reps)


def coverage_experiment(spec: ErrorProcessSpec, n: int, reps: int,
                        alphas: list[float], grid: TimeGrid = DEFAULT_GRID,
                        seed: int | tuple = 0) -> CoverageReport:
    """Simultaneous coverage of the identity center over `reps` replications.

    Each replication simulates n curves around the identity, builds the
    confidence tube for every alpha and records whether the center lies
    inside at all grid points.  Replications hitting a singular residual
    covariance are tolerated as non-covering up to 0.1 percent of reps,
    beyond that the run aborts.

    Every alpha is checked before the first draw.  The tubes of a replication
    are nested (one center, S and n; the quantile falls as alpha grows), and
    each is built, its quantile solved, only when tested, largest alpha first:
    once one holds the center, no wider tube's quantile is solved, except for an
    alpha within 2e-8 below it (each root is good to 1e-8 in EEC value).

    Replications are drawn in chunks of about _CHUNK_POINTS curve points, one keyed
    sample_gp_sample pass each, with the same bits as one replication at a time.
    """
    n, reps = _check_design(n, reps)
    alphas = [gkf._check_alpha(a) for a in alphas]
    ranked = sorted(enumerate(alphas), key=lambda pair: -pair[1])    # largest alpha first
    center = RotationCurve.identity(grid)

    covered = np.zeros((reps, len(alphas)), dtype=bool)
    n_singular = 0
    chunk = max(1, _CHUNK_POINTS // (n * len(grid)))
    for start in range(0, reps, chunk):
        drawn = sample_gp_sample(spec, center, grid, n, seed, range(reps)[start:start + chunk])
        for rep, (sample, _) in enumerate(drawn, start):
            try:
                ing, held = tubes.tube_ingredients(sample), -math.inf   # largest alpha that held
                for a_idx, alpha in ranked:
                    if alpha == held or alpha < held - 2.0 * gkf._VALUE_TOL or tubes.tube_contains(
                            tubes.assemble_tube(ing, alpha), center)[1]:
                        covered[rep, a_idx], held = True, max(held, alpha)
            except SingularCovariance:
                n_singular += 1

    if n_singular > 0.001 * reps:
        raise SingularCovariance(
            f"{n_singular} of {reps} replications hit a singular covariance")

    rates = covered.mean(axis=0)
    stderr = np.sqrt(rates * (1.0 - rates) / reps)
    return CoverageReport(spec=spec, n=n, reps=reps, alphas=tuple(alphas),
                          rates=tuple(float(r) for r in rates),
                          mc_stderr=tuple(float(s) for s in stderr), n_singular=n_singular,
                          seed=int(seed) if isinstance(seed, numbers.Integral) else None)


# Replications per batch of mc_quantile_oracle, part of its seed contract: the
# batches draw from one generator in turn, so another size reorders the draws.
_ORACLE_BATCH = 2000


def mc_quantile_oracle(spec: ErrorProcessSpec, n: int, reps: int, alpha: float,
                       grid: TimeGrid = DEFAULT_GRID, seed: int = 0) -> float:
    """Empirical (1 - alpha)-quantile of max_t H_t from generating residuals.

    Works directly on the algebra-valued paths (no exponential map), with the
    mean-centered covariance of the generating process, so it is an
    independent reference for the expected-Euler-characteristic quantile.
    """
    n, reps = _check_design(n, reps)
    alpha = gkf._check_alpha(alpha)
    rng = np.random.default_rng(seed)
    maxima = np.empty(reps)
    for done in range(0, reps, _ORACLE_BATCH):
        m = min(_ORACLE_BATCH, reps - done)
        eps = np.stack([_error_paths(spec.i, spec.l, grid, rng, (m, n))
                        for _ in range(3)], axis=-1)          # (m, n, K, 3)
        a = (spec.sigma * eps) @ MIXING_MATRICES[spec.j].T
        abar = a.mean(axis=1)                                  # (m, K, 3)
        dev = a - abar[:, None]
        cov = np.einsum("mnka,mnkb->mkab", dev, dev) / (n - 1)
        h = n * np.einsum("mka,mka->mk", abar, np.linalg.solve(cov, abar[..., None])[..., 0])
        maxima[done:done + m] = h.max(axis=1)
    return float(np.quantile(maxima, 1.0 - alpha))
