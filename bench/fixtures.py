"""Seeded two-session CSV fixtures for the `sessions` workload.

Everything here uses numpy and scipy only, so the inputs do not depend on
the package under test.  A session is a directory of curve files; curve n
of a session is the model curve

    C(u) @ D(u) @ exp(a_n(u))

evaluated at jittered raw time stamps, where C is a smooth center, D the
injected center difference (identity for session A and for pairs without a
difference) and a_n a smooth trigonometric error path of scale SIGMA.  For
pairs compared under an alignment (P, Q, warp), session B is written in its
own frame, P^T X(warp^{-1}(s)) Q^T, so that the alignment maps it back onto
session A's frame and time scale.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

SIGMA = 0.02
STEP = 0.01                      # grid step of the 101-point comparison grid
SHORT_STEPS, WIDE_STEPS = 5, 25  # injected widths: 5 % and 25 % of the cycle
CLEAR_AMPLITUDE = 0.25           # rad; several tube radii for every n used
# Smallest sum of the two tubes' inner cross-section radii, sqrt(lambda_min h / n),
# over the grid, for SIGMA = 0.02 and alpha = 0.05, seen on these fixtures
# (six seeds per n).  A "near" difference puts the centers 0.8 of it apart:
# each center lies near or outside the other tube's boundary, yet the tubes
# still intersect, so the overlap decision has to find the intersection.
RMIN_SUM = {8: 0.044, 12: 0.023, 20: 0.020}
NEAR_FACTOR = 0.8
MAX_ACTION_ANGLE = 0.25          # rad; keeps every rotation, so every Euler middle angle, below 90 deg


@dataclass(frozen=True)
class PairSpec:
    """One session pair of the fixed mix; the seed only fills in random content."""

    n: int             # curves per session
    rows: int          # raw rows per curve file
    schema: str        # "matrix" or "euler"
    diff: str          # "none", "short" or "wide"
    strength: str      # "clear" or "near" ("-" without a difference)
    aligned: bool      # compare through --alignment

    @property
    def label(self) -> str:
        return (f"n{self.n}-r{self.rows}-{self.schema}-{self.diff}-{self.strength}"
                f"-{'aligned' if self.aligned else 'plain'}")


def _mix() -> list[PairSpec]:
    """34 pairs: 24 without a difference, 8 short and 2 wide differences.

    The shares put the median among the no-difference pairs (early-exit
    compares, ingest-bound) and the p90 among the short clear differences and
    the heaviest ingests, below the two wide pairs, so neither percentile
    rests on a single op type.
    """
    pairs = [PairSpec(n, rows, schema, "none", "-", aligned)
             for n in (8, 12, 20) for rows in (101, 240)
             for schema in ("matrix", "euler") for aligned in (False, True)]
    short = [(8, 101, "matrix", False), (12, 240, "euler", True),
             (20, 101, "euler", False), (12, 101, "matrix", True)]
    for strength in ("clear", "near"):
        for n, rows, schema, aligned in short:
            pairs.append(PairSpec(n, rows, schema, "short", strength, aligned))
    pairs.append(PairSpec(12, 240, "matrix", "wide", "clear", True))
    pairs.append(PairSpec(20, 101, "euler", "wide", "near", False))
    return pairs


PAIR_MIX = _mix()


def mix_composition() -> dict:
    """Counts of each input property over the pair mix (for provenance)."""
    comp: dict = {}
    for p in PAIR_MIX:
        for key, value in (("n", p.n), ("rows", p.rows), ("schema", p.schema),
                           ("diff", f"{p.diff}-{p.strength}"), ("aligned", p.aligned)):
            bucket = comp.setdefault(key, {})
            bucket[str(value)] = bucket.get(str(value), 0) + 1
    comp["pairs"] = len(PAIR_MIX)
    return comp


@dataclass(frozen=True)
class PairFiles:
    spec: PairSpec
    dir_a: str
    dir_b: str
    alignment: str | None                      # alignment JSON path
    interval: tuple[float, float] | None       # injected difference, session-A time


def _center_rotvec(u: np.ndarray, coef: np.ndarray) -> np.ndarray:
    a1, a2, a3, p1, p2 = coef
    return np.stack([a1 * np.sin(2 * np.pi * u + p1),
                     a2 * np.cos(2 * np.pi * u + p2) - a2,
                     a3 * u], axis=-1)


def _ramp(u: np.ndarray, t0: float, t1: float) -> np.ndarray:
    return np.clip((u - t0) / STEP, 0.0, 1.0) * np.clip((t1 - u) / STEP, 0.0, 1.0)


def _raw_times(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Strictly increasing normalized times with jittered interior stamps."""
    u = np.linspace(0.0, 1.0, rows)
    u[1:-1] += rng.uniform(-0.3, 0.3, rows - 2) / (rows - 1)
    return u


def _write_curve(path: str, stamps: np.ndarray, R: np.ndarray, schema: str,
                 rng: np.random.Generator) -> None:
    if schema == "matrix":
        noisy = R + rng.uniform(-1.5e-7, 1.5e-7, R.shape)   # orthogonality error <= 1e-6
        body = np.column_stack([stamps, noisy.reshape(-1, 9)])
        header = "# t,r11,r12,r13,r21,r22,r23,r31,r32,r33"
    else:
        angles = Rotation.from_matrix(R).as_euler("ZXY", degrees=True)
        if np.abs(angles[:, 1]).max() > 89.0:
            raise ValueError(f"{path}: Euler middle angle too close to gimbal lock")
        body = np.column_stack([stamps, angles])
        header = "t,angle_z,angle_x,angle_y"
    lines = [header] + [",".join(map(repr, row)) for row in body.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _session(directory: str, spec: PairSpec, rng: np.random.Generator, coef: np.ndarray,
             diff: tuple[float, float, float, np.ndarray] | None,
             action: tuple[Rotation, Rotation, np.ndarray] | None) -> None:
    os.makedirs(directory)
    for n in range(spec.n):
        s = _raw_times(rng, spec.rows)                  # this file's own normalized time
        u = s if action is None else np.interp(s, action[2][:, 1], action[2][:, 0])
        b = rng.standard_normal((2, 3))
        noise = SIGMA * (np.sin(0.5 * np.pi * u)[:, None] * b[0]
                         + np.cos(0.5 * np.pi * u)[:, None] * b[1])
        X = Rotation.from_rotvec(_center_rotvec(u, coef))
        if diff is not None:
            t0, t1, amp, v = diff
            X = X * Rotation.from_rotvec(amp * _ramp(u, t0, t1)[:, None] * v)
        X = X * Rotation.from_rotvec(noise)
        if action is not None:
            p, q, _ = action
            X = p.inv() * X * q.inv()
        offset, duration = rng.uniform(0.0, 5.0), rng.uniform(0.8, 1.5)
        _write_curve(os.path.join(directory, f"walk{n:02d}.csv"), offset + duration * s,
                     X.as_matrix(), spec.schema, rng)


def write_pair(root: str, index: int, spec: PairSpec, seed: int, round_: int) -> PairFiles:
    """Write pair `index` of the mix under root; content keyed by (seed, round, index)."""
    rng = np.random.default_rng([seed, round_, index])
    coef = np.concatenate([rng.uniform([0.2, 0.1, 0.05], [0.4, 0.25, 0.2]),
                           rng.uniform(0.0, 2 * np.pi, 2)])
    diff = interval = None
    if spec.diff != "none":
        steps = SHORT_STEPS if spec.diff == "short" else WIDE_STEPS
        k0 = int(rng.integers(10, 90 - steps + 1))
        t0, t1 = k0 * STEP, (k0 + steps) * STEP
        amp = CLEAR_AMPLITUDE if spec.strength == "clear" else NEAR_FACTOR * RMIN_SUM[spec.n]
        v = rng.standard_normal(3)
        diff = (t0, t1, amp, v / np.linalg.norm(v))
        interval = (t0, t1)

    action = align_path = None
    if spec.aligned:
        p, q = (Rotation.from_rotvec(_bounded_rotvec(rng)) for _ in range(2))
        u1 = rng.uniform(0.35, 0.65)
        knots = np.array([[0.0, 0.0], [u1, u1 + rng.uniform(-0.05, 0.05)], [1.0, 1.0]])
        action = (p, q, knots)

    base = os.path.join(root, f"pair{index:02d}")
    dir_a, dir_b = os.path.join(base, "a"), os.path.join(base, "b")
    _session(dir_a, spec, rng, coef, None, None)
    _session(dir_b, spec, rng, coef, diff, action)
    if action is not None:
        align_path = os.path.join(base, "align.json")
        with open(align_path, "w") as fh:
            json.dump({"p": action[0].as_matrix().reshape(-1).tolist(),
                       "q": action[1].as_matrix().reshape(-1).tolist(),
                       "warp": action[2].tolist()}, fh)
    return PairFiles(spec, dir_a, dir_b, align_path, interval)


def _bounded_rotvec(rng: np.random.Generator) -> np.ndarray:
    axis = rng.standard_normal(3)
    return rng.uniform(0.0, MAX_ACTION_ANGLE) * axis / np.linalg.norm(axis)

