import random
from fractions import Fraction as F

import pytest

from quadtangents.exactnum import RatMatrix, det, solve_linear
from quadtangents.grassmann import ProjFlat, plucker
from quadtangents.quadrics import (
    AffineFlat,
    Quadric,
    cylinder,
    is_tangent,
    perturbed_smooth_quadric,
    tangency_form,
)


def signature_abs(q) -> int:
    pos, neg, _ = q.signature
    return abs(pos - neg)


# -- independent distance oracle ----------------------------------------------


def squared_distance(point_p, dir_p, flat: AffineFlat) -> F:
    """Exact min squared Euclidean distance between the affine line
    point_p + s*dir_p and an affine flat, via the normal equations."""
    w = [p - a for p, a in zip(point_p, flat.point)]
    cols = [list(dir_p)] + [[-x for x in flat.directions.col(j)]
                            for j in range(flat.directions.cols)]
    m = RatMatrix.from_rows(cols).transpose()        # n x (1+k)
    gram = m.transpose() @ m
    rhs = (m.transpose() @ RatMatrix.column(w)).scaled(-1)
    sol = solve_linear(gram, rhs)
    assert sol.consistent  # normal equations of a convex problem
    y = sol.particular
    resid = [wi + sum(m[i, j] * y[j, 0] for j in range(m.cols))
             for i, wi in enumerate(w)]
    return sum(x * x for x in resid)


def quaternion_rotation(a, b, c, d) -> RatMatrix:
    """Exact rational rotation matrix from an integer quaternion."""
    n = F(a * a + b * b + c * c + d * d)
    rows = [
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ]
    return RatMatrix.from_rows([[F(x) / n for x in row] for row in rows])


def apply_isometry(rot: RatMatrix, shift, point, direction):
    p = rot @ RatMatrix.column(point)
    d = rot @ RatMatrix.column(direction)
    return ([x + s for x, s in zip(p.col(0), shift)], list(d.col(0)))


def line_flat(point, direction) -> AffineFlat:
    return AffineFlat.from_point_directions(point, [direction])


def line_to_proj(point, direction) -> ProjFlat:
    return line_flat(point, direction).to_projective()


# -- tangency form ------------------------------------------------------------


def test_tangency_form_order_zero_is_the_quadric():
    q = Quadric.from_diagonal([1, 2, 3, 4])
    assert tangency_form(q, 0).entries == q.matrix.entries


def test_tangency_form_identity():
    q = Quadric.from_diagonal([1, 1, 1, 1])
    assert tangency_form(q, 1).entries == RatMatrix.identity(6).entries


@pytest.mark.parametrize("alpha,beta", [(F(1, 10), F(1, 10)), (F(2, 7), F(3, 5)),
                                        (F(-1, 3), F(5, 2))])
def test_tangency_form_first_family_row(alpha, beta):
    # diagonal of the line-tangency form of x0^2 + x3^2 - beta (x1^2 + x2^2)
    q = Quadric.from_diagonal([1, -beta, -beta, 1])
    form = tangency_form(q, 1)
    diag = [form[i, i] for i in range(6)]
    assert diag == [-beta, -beta, 1, beta * beta, -beta, -beta]
    off = [form[i, j] for i in range(6) for j in range(6) if i != j]
    assert all(x == 0 for x in off)


def test_tangency_form_symmetric_for_dense_quadric():
    m = RatMatrix.from_rows([[1, 2, 0, 1], [2, -1, 3, 0],
                             [0, 3, 2, -2], [1, 0, -2, 5]])
    form = tangency_form(Quadric(m), 1)
    assert form.is_symmetric


# -- algebraic tangency vs geometry -------------------------------------------

UNIT_SPHERE = Quadric.from_diagonal([-1, 1, 1, 1])


def test_sphere_tangent_line():
    # the line {x3 = 1, direction e1} touches the unit sphere at (0,0,1)
    line = line_to_proj([0, 0, 1], [1, 0, 0])
    assert is_tangent(UNIT_SPHERE, plucker(line)) == 0


def test_sphere_secant_line():
    axis = line_to_proj([0, 0, 0], [1, 0, 0])
    assert is_tangent(UNIT_SPHERE, plucker(axis)) != 0


def test_sphere_missing_line():
    far = line_to_proj([0, 0, 2], [1, 0, 0])
    assert is_tangent(UNIT_SPHERE, plucker(far)) != 0


def test_rescaling_keeps_the_verdict():
    line = line_to_proj([0, 0, 1], [1, 0, 0])
    p = plucker(line)
    scaled_p = type(p)(p.k, p.n, tuple(F(3, 2) * c for c in p.coords))
    scaled_q = Quadric(UNIT_SPHERE.matrix.scaled(F(-7, 3)))
    base = is_tangent(UNIT_SPHERE, p)
    assert (is_tangent(scaled_q, scaled_p) == 0) == (base == 0)
    secant = plucker(line_to_proj([0, 0, 0], [1, 0, 0]))
    assert is_tangent(scaled_q, secant) != 0


# -- cylinders ----------------------------------------------------------------


def test_cylinder_around_x_axis():
    u = line_flat([0, 0, 0], [1, 0, 0])
    q = cylinder(u, 1)
    assert q.matrix.entries == RatMatrix.diagonal([-1, 0, 1, 1]).entries


def test_cylinder_radius_zero_is_doubled_flat():
    u = line_flat([0, 0, 0], [1, 0, 0])
    q = cylinder(u, 0)
    assert q.rank == 2  # n - k for a line in R^3
    assert q.signature == (2, 0, 2)


def test_cylinder_value_on_core_flat():
    rng = random.Random(5)
    for _ in range(10):
        pt = [F(rng.randint(-3, 3)) for _ in range(3)]
        direction = [F(rng.randint(-3, 3)) for _ in range(3)]
        if all(x == 0 for x in direction):
            continue
        u = line_flat(pt, direction)
        r = F(rng.randint(1, 5), rng.randint(1, 3))
        q = cylinder(u, r)
        for s in (F(0), F(2, 3), F(-5)):
            x = [a + s * d for a, d in zip(pt, direction)]
            vec = RatMatrix.column([F(1)] + x)
            value = (vec.transpose() @ q.matrix @ vec)[0, 0]
            assert value == -r * r


@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_cylinder_signature_magnitude(n, k):
    # cylinders around an (n-k-1)-flat have |signature| = k
    rng = random.Random(n * 10 + k)
    dim_u = n - k - 1
    while True:
        pt = [F(rng.randint(-2, 2)) for _ in range(n)]
        dirs = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(dim_u)]
        try:
            u = AffineFlat.from_point_directions(pt, dirs)
            break
        except Exception:
            continue
    q = cylinder(u, F(1, 2))
    assert signature_abs(q) == k


def test_tangency_iff_distance_exact():
    # construct exact tangencies: a line at distance r from an axis line,
    # moved into general position by an exact rational isometry
    rng = random.Random(17)
    checked_tangent = checked_other = 0
    while checked_tangent < 8 or checked_other < 12:
        m, n_ = rng.randint(1, 4), rng.randint(1, 4)
        if m == n_:
            continue
        scale = F(rng.randint(1, 3), rng.randint(1, 3))
        r = scale * (m * m + n_ * n_)
        a = scale * (m * m - n_ * n_)
        b = scale * (2 * m * n_)  # a^2 + b^2 = r^2
        c = F(rng.randint(1, 3))
        d1 = F(rng.randint(-2, 2))
        rot = quaternion_rotation(rng.randint(1, 3), rng.randint(-2, 2),
                                  rng.randint(-2, 2), rng.randint(-2, 2))
        shift = [F(rng.randint(-3, 3)) for _ in range(3)]

        axis_pt, axis_dir = apply_isometry(rot, shift, [0, 0, 0], [1, 0, 0])
        u = line_flat(axis_pt, axis_dir)
        q = cylinder(u, r)

        tangent_pt, tangent_dir = apply_isometry(
            rot, shift, [0, a, b], [d1, -b * c, a * c])
        dist2 = squared_distance(tangent_pt, tangent_dir, u)
        assert dist2 == r * r
        residual = is_tangent(q, plucker(line_to_proj(tangent_pt, tangent_dir)))
        assert residual == 0
        checked_tangent += 1

        other_pt = [F(rng.randint(-4, 4)) for _ in range(3)]
        other_dir = [F(rng.randint(-3, 3)) for _ in range(3)]
        if all(x == 0 for x in other_dir):
            continue
        dist2 = squared_distance(other_pt, other_dir, u)
        residual = is_tangent(q, plucker(line_to_proj(other_pt, other_dir)))
        assert (residual == 0) == (dist2 == r * r)
        checked_other += 1


# -- smooth perturbations -----------------------------------------------------


def test_perturbed_sphere():
    q = perturbed_smooth_quadric(1, 3, 1, eps=1)
    assert q.matrix.entries == RatMatrix.diagonal([-1, 1, 1, 1]).entries
    assert signature_abs(q) == 2


def test_perturbed_quadric_smooth():
    q = perturbed_smooth_quadric(1, 3, 1)
    assert q.rank == 4 and det(q.matrix) != 0


def test_perturbed_quadric_rejects_bad_radius():
    with pytest.raises(ValueError):
        perturbed_smooth_quadric(1, 3, 0)


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (1, 4), (3, 5)])
def test_perturbation_signature_menu(k, n):
    # signatures reachable by choosing perturbation signs match the parity
    # ladder: n-1, n-3, .. down to 2k-n+1 (if positive) or the parity floor
    import itertools

    reachable = set()
    for signs in itertools.product((1, -1), repeat=n - k - 1):
        eps = [F(s, 1000) for s in signs]
        q = perturbed_smooth_quadric(k, n, 1, eps=eps)
        reachable.add(signature_abs(q))
    lo = 2 * k - n + 1
    if k >= n / 2:
        expected = set(range(lo, n, 2))
    else:
        floor = (n - 1) % 2
        expected = set(range(floor, n, 2))
    assert reachable == expected
