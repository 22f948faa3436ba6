"""Lifting automorphisms of the discrete group to the continuous group.

Given an automorphism of D specified by (zeta, chi, beta1, gamma1), the
unique automorphism of the continuous group extending it has

    eps  = 0 if zeta = +1 else 1,
    ((alpha, beta), (-beta, alpha)) = W(eps) Mbar^{-T} chi Mbar^{T},
    (gamma, delta) = R(eps) (beta1, gamma1),

where W(eps) is the 2x2 swap to the power eps and R(eps) is assembled from
the inverse of F(B q) and the geometric sum of theta powers at any q not
divisible by the order of theta. R(eps) is computed here at q = 1, where the
sum is the single term theta^(+-1); the tests check the expression at the
other q against it (tests/continuous.py), so its independence of q is
exercised rather than assumed.

verify_extension then compares the exact word-level action (the closed form
of symmetry.shift_prefix) with the lifted map on an embedded lattice box,
and uniqueness_probe re-derives the five parameters from lattice data alone.
The box points are exact integers built as arrays, by one matrix product per
pass of the (m, n) grid with the theta powers and their products with chi:
int64 while max|offset| + 2 box max|matrix entry| stays below 2^62, Python
ints (dtype object) beyond, each point then rounded to float once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, InvalidParametersError, NotElasticError
from .intmat import theta_power, theta_powers
from .liegroup import S2Group, f_factor
from .autos import GroupAutoParams, apply_group_auto_batch
from .discrete import DElement, embed_int
from .symmetry import NOT_LIFTING, DAutomorphism, check_d_automorphism, lifts
from .symmetry import image_word, shift_prefix

_FORM_TOL = 1e-9
_ROWS_PER_PASS = 2**14
# verify_extension's time grows as box^3 and its (m, n) grid as box^2: box 200
# takes 19 s at 82 MB peak RSS on a 2-CPU Xeon. Larger boxes are refused
# before anything is allocated.
BOX_LIMIT = 200


def _floats(values, what: str) -> np.ndarray:
    """Exact integers as a float array; one beyond float range is an input error."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise InvalidParametersError(f"{what} does not fit in a float") from None


def _swap(eps: int) -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]]) if eps else np.eye(2)


def r_eps(g: S2Group, eps: int) -> np.ndarray:
    """The 2x2 matrix taking (beta1, gamma1) to (gamma, delta):
    W(eps) F(B xi)^{-1} Mbar^{-T} theta^xi, xi = (-1)^eps.

    F(B xi) is invertible because 1 is never a multiple of the order of theta.
    """
    if eps not in (0, 1):
        raise ValueError(f"eps must be 0 or 1, got {eps}")
    xi = 1 if eps == 0 else -1
    f_inv = np.linalg.inv(f_factor(g, float(xi)))
    return _swap(eps) @ f_inv @ g.Mbar_invT @ np.array(theta_power(g.theta, xi).rows(), dtype=float)


def _rotation_scaling_params(block: np.ndarray, context: str) -> tuple[float, float]:
    scale = max(1.0, float(np.max(np.abs(block))))
    if (
        abs(block[0, 0] - block[1, 1]) > _FORM_TOL * scale
        or abs(block[0, 1] + block[1, 0]) > _FORM_TOL * scale
    ):
        raise InternalInconsistencyError(
            f"{context}: block is not of rotation-scaling form: {block.tolist()}"
        )
    return (
        0.5 * (block[0, 0] + block[1, 1]),
        0.5 * (block[0, 1] - block[1, 0]),
    )


def extend(g: S2Group, phi_d: DAutomorphism) -> GroupAutoParams:
    """The unique automorphism of the continuous group restricting to phi_d on D.

    Raises NotAnAutomorphismError unless phi_d is an automorphism of D, and
    NotElasticError when it is one that does not lift (see symmetry.lifts;
    only theta = -I has such automorphisms). Otherwise the conjugated chi
    block is of rotation-scaling form, and a failure of that form is an
    InternalInconsistencyError. A shift, given or lifted, beyond float range
    raises InvalidParametersError, as does a lattice image point beyond it
    in verify_extension and uniqueness_probe.
    """
    check_d_automorphism(g.theta, phi_d)
    if not lifts(g.theta, phi_d.zeta, phi_d.chi):
        raise NotElasticError(NOT_LIFTING)
    eps = 0 if phi_d.zeta == 1 else 1
    chi = np.array(phi_d.chi.rows(), dtype=float)
    block = _swap(eps) @ g.Mbar_invT @ chi @ g.Mbar.T
    alpha, beta = _rotation_scaling_params(block, "extend")
    with np.errstate(over="ignore"):
        gamma, delta = r_eps(g, eps) @ _floats((phi_d.beta1, phi_d.gamma1), "shift (beta1, gamma1)")
    if not np.isfinite((gamma, delta)).all():
        raise InvalidParametersError("lifted shift (gamma, delta) does not fit in a float")
    return GroupAutoParams(eps, float(alpha), float(beta), float(gamma), float(delta), g.k)


@dataclass(frozen=True)
class ExtensionReport:
    """Agreement of the lifted map with the word-level action on a lattice box."""

    phi_d: DAutomorphism
    extended: GroupAutoParams
    max_discrepancy: float
    box: int
    k: float
    passed: bool


def verify_extension(
    g: S2Group, phi_d: DAutomorphism, phi_tilde: GroupAutoParams, box: int
) -> ExtensionReport:
    """Compare phi_d (exact words) with phi_tilde (lifted map) on all words
    with |q|, |m|, |n| <= box, in "f" coordinates.

    The box is mapped a pass at a time, each pass whole q slices of at most
    about _ROWS_PER_PASS rows, so memory stays O(box^2). A pass builds the
    exact points of its words, (theta^q (m, n), q), and of their images,
    (theta^(zeta q) chi (m, n) + theta^(zeta q) s(q mod p), zeta q), by one
    integer matrix product of the (m, n) grid with the matrices of its slices
    (read from theta_powers, the offsets from shift_prefix), then rounds every
    point to float once. The integers are int64 when max|offset| +
    2 box max|matrix entry| is below 2^62, else Python ints (dtype object).
    A word passes within max(1e-9, 1e-12 * scale), scale the largest of its
    point entries and, for q != 0, of |gamma| and |delta|: the roundoff of
    sin(k q) gamma need not show in the points (sin(2 pi) gamma at q = +-3
    for trace -1). A negative box, or one above BOX_LIMIT, raises
    InvalidParametersError.
    """
    if box < 0:
        raise InvalidParametersError("box must be nonnegative")
    if box > BOX_LIMIT:
        raise InvalidParametersError(f"box {box} above BOX_LIMIT = {BOX_LIMIT}")
    prefix = shift_prefix(g.theta, phi_d)
    powers, zeta = theta_powers(g.theta), phi_d.zeta
    p = len(powers)
    # by residue r = q mod p: the matrices and offsets of a word and of its image
    image_powers = [powers[zeta * r % p] for r in range(p)]
    mats = np.array([(powers[r].rows(), (t @ phi_d.chi).rows()) for r, t in enumerate(image_powers)], dtype=object)
    offsets = np.array([((0, 0), t.apply(prefix[r])) for r, t in enumerate(image_powers)], dtype=object)
    if np.abs(offsets).max() + 2 * box * np.abs(mats).max() < 2**62:
        mats, offsets = mats.astype(np.int64), offsets.astype(np.int64)
    grid = np.array([(m, n) for m in range(-box, box + 1) for n in range(-box, box + 1)], dtype=np.int64)
    step = max(1, _ROWS_PER_PASS // len(grid))
    gamma_delta = max(abs(phi_tilde.gamma), abs(phi_tilde.delta))
    max_disc, passed = 0.0, True
    for lo in range(-box, box + 1, step):
        qs = np.arange(lo, min(lo + step, box + 1))
        ints = np.empty((len(qs), 2, len(grid), 3), dtype=mats.dtype)
        ints[..., :2] = grid @ mats[qs % p].swapaxes(-1, -2) + offsets[qs % p][:, :, None]
        ints[..., 2] = np.stack((qs, zeta * qs), axis=1)[:, :, None]
        points = _floats(ints, "lattice image point")
        x_src, x_img = points[:, 0].reshape(-1, 3), points[:, 1].reshape(-1, 3)
        mapped = apply_group_auto_batch(phi_tilde, x_src @ g.M_invT.T)
        diffs = np.max(np.abs(mapped - x_img @ g.M_invT.T), axis=1)
        row_max = np.abs(points).max(axis=(1, 3)).ravel()
        scale = np.maximum(row_max, np.where(x_src[:, 2] != 0, gamma_delta, 0.0))
        max_disc = max(max_disc, float(np.max(diffs)))
        passed = passed and not np.any(diffs > np.maximum(1e-9, 1e-12 * scale))
    return ExtensionReport(phi_d, phi_tilde, max_disc, box, g.k, passed)


@dataclass(frozen=True)
class UniquenessProbe:
    """Parameters re-derived from lattice data, next to the extension's values."""

    epsilon: int
    alpha: float
    beta: float
    gamma: float
    delta: float
    max_param_diff: float


def uniqueness_probe(g: S2Group, phi_d: DAutomorphism) -> UniquenessProbe:
    """Re-derive (eps, alpha, beta, gamma, delta) from the action on lattice words.

    alpha and beta come from the images of the q = 0 generators B and C;
    gamma and delta from the image of A, through F(B (-1)^eps), which is
    invertible because q = 1 is never a multiple of the order of theta.
    """
    ext = extend(g, phi_d)
    theta = g.theta
    prefix = shift_prefix(theta, phi_d)

    # zeta, hence eps, read off the image of A
    a_image = image_word(phi_d, prefix, DElement(1, 0, 0))
    eps = 0 if a_image.q == 1 else 1

    # alpha, beta from the images of B and C (third coordinate zero)
    obs = np.zeros((2, 2))
    for col, word in enumerate((DElement(0, 1, 0), DElement(0, 0, 1))):
        img = image_word(phi_d, prefix, word)
        x = embed_int(theta, img)
        obs[:, col] = g.Mbar_invT @ np.array([float(x[0]), float(x[1])])
    # the automorphism acts on the span of the first two frame vectors by
    # W(eps) ((alpha, beta), (-beta, alpha)); invert the frame change
    block = _swap(eps) @ obs @ g.Mbar.T
    alpha, beta = _rotation_scaling_params(block, "uniqueness_probe")

    # gamma, delta from the image of A (q = 1): u12 = F(B xi) W(eps) (gamma, delta)
    u12 = g.Mbar_invT @ _floats(embed_int(theta, a_image)[:2], "image of A^1")
    xi = 1.0 if eps == 0 else -1.0
    gamma, delta = (float(v) for v in _swap(eps) @ np.linalg.inv(f_factor(g, xi)) @ u12)

    diffs = (alpha - ext.alpha, beta - ext.beta, eps - ext.epsilon, gamma - ext.gamma, delta - ext.delta)
    return UniquenessProbe(eps, float(alpha), float(beta), gamma, delta, max(abs(float(d)) for d in diffs))
