"""Independent dual quaternion arithmetic for input generation and oracles.

A dual quaternion is an 8-vector ``[pw, px, py, pz, qw, qx, qy, qz]`` and a
polynomial is an ``(n+1, 8)`` array of ascending coefficients, the file format
of the command line tool.  Nothing here imports the package under test, so a
change to its algebra cannot change the benchmark's inputs or its verdicts.
"""
from __future__ import annotations

import numpy as np


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions stored in the last axis."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def dqmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dual quaternion product (p1 + eps q1)(p2 + eps q2), eps**2 = 0."""
    p = qmul(a[..., :4], b[..., :4])
    q = qmul(a[..., :4], b[..., 4:]) + qmul(a[..., 4:], b[..., :4])
    return np.concatenate([p, q], axis=-1)


def pmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of polynomials over the dual quaternions (coefficients on the left).

    Arrays are ``(..., degree + 1, 8)``; leading axes broadcast, so a batch of
    polynomials multiplies in one call.
    """
    la, lb = a.shape[-2], b.shape[-2]
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (la + lb - 1, 8))
    for i in range(la):
        out[..., i:i + lb, :] += dqmul(a[..., i:i + 1, :], b)
    return out


def scale_real(c: np.ndarray, r) -> np.ndarray:
    """Product of a dual quaternion polynomial with a real polynomial."""
    r = np.asarray(r, dtype=float)
    out = np.zeros((len(c) + len(r) - 1, 8))
    for i, ri in enumerate(r):
        out[i:i + len(c)] += ri * c
    return out


ONE = np.array([1.0, 0, 0, 0, 0, 0, 0, 0])


def t_minus(h: np.ndarray) -> np.ndarray:
    return np.stack([-h, np.broadcast_to(ONE, h.shape)], axis=-2)


def chain(factors) -> np.ndarray:
    """(t - h_1)(t - h_2)...(t - h_n) for factors ``(..., n, 8)``."""
    factors = np.asarray(factors, dtype=float)
    out = ONE[None, :]
    for j in range(factors.shape[-2]):
        out = pmul(out, t_minus(factors[..., j, :]))
    return out


def evaluate(c: np.ndarray, t: float) -> np.ndarray:
    """Value at a real parameter; the leading coefficient at infinity."""
    if np.isinf(t):
        return c[-1]
    acc = np.zeros(8)
    for coeff in c[::-1]:
        acc = acc * t + coeff
    return acc


def projective_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the angle between two 8-vectors: zero when they are the same pose."""
    u = a / np.linalg.norm(a)
    w = b - np.dot(u, b) * u
    return float(np.linalg.norm(w) / np.linalg.norm(b))


def norm_quadratic(h: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the monic norm quadratic of t - h."""
    return np.array([h[:4] @ h[:4], -2.0 * h[0], 1.0])


def rotation_generator(rng: np.random.Generator) -> np.ndarray:
    """Generator of a rotation about a random line: c + rho*d + eps*rho*(d x a)."""
    c = rng.uniform(-1.5, 1.5)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    a = rng.normal(size=3)
    rho = rng.uniform(0.5, 2.0)
    return np.concatenate([[c], rho * d, [0.0], rho * np.cross(d, a)])


def random_pose(rng: np.random.Generator) -> np.ndarray:
    """Unit dual quaternion of a random rigid displacement."""
    p = rng.normal(size=4)
    p /= np.linalg.norm(p)
    x = np.concatenate([[0.0], rng.normal(size=3)])
    return np.concatenate([p, -0.5 * qmul(x, p)])


def study_form(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[:4] @ b[4:] + b[:4] @ a[4:])
