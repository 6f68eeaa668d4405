"""Seeded verdict inputs whose correct answer is known by construction.

Every input is a raw 3x3 complex moment matrix M_kl = tr(L_k L_l rho) plus
the integer two_j; the program under test receives nothing else.  Moments
are built in closed form at the moment level and then rotated by a seeded
random SO(3) rotation R (M -> R M R^T, the covariance of the moments under
the spin-j rotation generated by R).  Without the rotation every
certificate would be diagonal in the L3 basis and the eigensolver that
cleans it would have nothing to do.

Families, with the known answer and the path the seed commit takes:

- ``coherent``: a mixture of spin coherent states plus some I/d.  Separable,
  so quantum; the PPT inner test accepts it (inner accept).
- ``dicke``: one Dicke level |j,m> (|m| <= j/2) plus an admixture eps * I/d.
  A real state, so quantum, but entangled on the pair level: the exact SDP
  has to accept it (exact accept).
- ``v-over-1``: renormalized coordinates with v1 > 1, i.e. <L1^2> > j^2.
  Not quantum; rejected before the exact SDP (early reject).
- ``dicke-zero``: <L3^2> = 0 with <L1^2> - <L2^2> = 2 f j(j+1), f > 0, at
  integer j.  <L3^2> = 0 forces the state |j,0>, whose L1/L2 moments are
  equal, so these are not quantum; only the exact SDP sees it (exact
  reject).  f stays below the 2j = 4 threshold (about 0.2) beyond which
  the reconstruction test already rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUANTUM = "quantum"
NON_QUANTUM = "non-quantum"

# The answer each family is built to have.
FAMILIES = {
    "coherent": QUANTUM,
    "dicke": QUANTUM,
    "v-over-1": NON_QUANTUM,
    "dicke-zero": NON_QUANTUM,
}


@dataclass(frozen=True)
class VerdictInput:
    family: str
    two_j: int
    matrix: np.ndarray  # 3x3 complex moment matrix

    @property
    def expect(self) -> str:
        return FAMILIES[self.family]


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SO(3) matrix from a uniform unit quaternion."""
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def _unit(rng: np.random.Generator) -> np.ndarray:
    n = rng.standard_normal(3)
    return n / np.linalg.norm(n)


def assemble(sym: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """M = S + i A(l) with A_kl = eps_klm l_m / 2."""
    a = np.zeros((3, 3))
    a[0, 1], a[1, 0] = ell[2] / 2.0, -ell[2] / 2.0
    a[1, 2], a[2, 1] = ell[0] / 2.0, -ell[0] / 2.0
    a[2, 0], a[0, 2] = ell[1] / 2.0, -ell[1] / 2.0
    return sym.astype(complex) + 1j * a


def _coherent(rng, two_j):
    j = two_j / 2.0
    k = 3
    w = rng.dirichlet(np.ones(k))
    delta = rng.uniform(0.05, 0.2)
    w = (1.0 - delta) * w
    sym = delta * (j * (j + 1.0) / 3.0) * np.eye(3)
    ell = np.zeros(3)
    for wi in w:
        n = _unit(rng)
        sym += wi * (j * (j - 0.5) * np.outer(n, n) + (j / 2.0) * np.eye(3))
        ell += wi * j * n
    return sym, ell


def _dicke(rng, two_j):
    j = two_j / 2.0
    m = int(rng.integers(-(two_j // 4), two_j // 4 + 1)) + (j % 1.0)  # |m| <= j/2
    eps = rng.uniform(0.005, 0.02)
    casimir = j * (j + 1.0)
    l3sq = (1.0 - eps) * m * m + eps * casimir / 3.0
    sym = np.diag([(casimir - l3sq) / 2.0, (casimir - l3sq) / 2.0, l3sq])
    ell = np.array([0.0, 0.0, (1.0 - eps) * m])
    return sym, ell


def _v_over_1(rng, two_j):
    j = two_j / 2.0
    v1 = rng.uniform(1.02, 1.15)
    split = rng.uniform(0.3, 0.7)
    v = np.array([v1, split * (1.0 - v1), (1.0 - split) * (1.0 - v1)])
    u = 0.1 * _unit(rng)
    sym = np.diag(v * (j * (j - 0.5)) + j / 2.0)
    return sym, u * j


def _dicke_zero(rng, two_j):
    if two_j % 2:
        raise ValueError("dicke-zero inputs need integer j")
    j = two_j / 2.0
    f = rng.uniform(0.05, 0.15)
    casimir = j * (j + 1.0)
    sym = np.diag([(0.5 + f) * casimir, (0.5 - f) * casimir, 0.0])
    return sym, np.zeros(3)


_MOMENTS_OF = {
    "coherent": _coherent,
    "dicke": _dicke,
    "v-over-1": _v_over_1,
    "dicke-zero": _dicke_zero,
}


def make_input(rng: np.random.Generator, family: str, two_j: int) -> VerdictInput:
    sym, ell = _MOMENTS_OF[family](rng, two_j)
    r = random_rotation(rng)
    matrix = assemble(r @ sym @ r.T, r @ ell)
    return VerdictInput(family=family, two_j=two_j, matrix=matrix)


def make_inputs(seed: int, spins, counts: dict[str, int]) -> list[VerdictInput]:
    """counts[family] inputs of each family at each spin, in a seeded order."""
    rng = np.random.default_rng(seed)
    out = [
        make_input(rng, family, two_j)
        for two_j in spins
        for family, n in counts.items()
        for _ in range(n)
    ]
    order = rng.permutation(len(out))
    return [out[i] for i in order]
