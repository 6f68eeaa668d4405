"""The standalone outer test: membership of moments in the set T_j."""

from spinmoment import matcore, reduction


def outer_test(m) -> bool:
    """Necessary condition: the reduced expectation value matrix must be PSD
    (to ``matcore.PSD_TOL``).

    False certifies that the moments are not quantum for this spin number.
    ``classify`` carries this test through its chi stage, which is congruent
    to it, and ``scan_grid`` tests tau itself.
    """
    rho = reduction.reconstruct_rho(m)
    return matcore.is_psd(reduction.tau(rho, m.two_j))
