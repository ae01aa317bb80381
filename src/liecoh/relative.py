"""Two chain models of relative cohomology for a subalgebra pair h < g.

Model 1 (basic subcomplex): the subspace of Lambda g* annihilated by every
interior product i_x and Lie derivative theta_x with x in h (horizontal and
invariant elements), with the restriction of the ambient differential.

Model 2 (invariant quotient complex): the h-invariant part of
Lambda (g/h)*, where invariance means vanishing of the Lie derivative along
the induced action on g/h, with the alternating-sum differential of the
projected bracket taken with the sign opposite to the ambient convention
(see ``exterior``).

Both are the output of one builder, ``_embedded_subcomplex``: a kernel of
constraint blocks per degree, with the differential built on the kernel's
support from a bracket and a sign and restricted to it, returned as one
``EmbeddedSubcomplex``.  Each kernel is sought only on the sign
block of the theta operators that define it (``liealg.sign_mask``), as
``liealg.Grading.block`` lists it.

The pullback along minus the projection s: g -> g/h restricts to a chain
isomorphism from model 2 onto model 1; ``compare_models`` verifies
bijectivity and the intertwining relation exactly.

Also here: the restriction map Lambda g* -> Lambda h* along the inclusion,
used by the noncohomologous-to-zero test.
"""

from __future__ import annotations

from functools import partial

from .cohomology import (
    BasisProduct,
    CochainComplex,
    EmbeddedProduct,
    check_chain_map,
)
from .errors import InternalInvariantError, ModelMismatch, NotAChainMap, NotDStable
from .exterior import (
    alternating_differential_matrix,
    basis_size,
    endo_action_matrix,
    interior_matrix,
    lie_derivative_matrix,
    multi_index_masks,
    pullback_matrix,
)
from .liealg import Grading, sign_mask, sign_parities
from .linalg import Matrix


class EmbeddedSubcomplex:
    """One relative model: a subcomplex of Lambda V*, V = g (basic) or g/h
    (invariant quotient), with the embedding of its basis per degree."""

    def __init__(self, pair, complex: CochainComplex, embeddings: tuple):
        self.pair = pair
        self.complex = complex
        self.embeddings = embeddings  # per degree, columns are basis vectors inside Lambda^k V*


def _embedded_subcomplex(pair, n, bracket, flip_sign, operators, failure, interiors=()) -> EmbeddedSubcomplex:
    """The forms in each Lambda^k (Q^n)* killed by i_x for every vector x
    in ``interiors`` and by theta_M for every endomorphism M of
    ``operators``, with the restriction of the alternating-sum differential
    of ``bracket`` (``alternating_differential_matrix`` with ``flip_sign``).

    ``operators`` holds pairs ``(M, theta)``, ``theta(k, columns)`` the
    matrix of theta_M on Lambda^k.  Per degree, the i_x and then the theta
    matrices are the builders of ``Matrix.stacked_nullspace``, sought on the
    block of the grading by the parities of the M with a ``sign_mask`` (all
    of Lambda^k when none has one): a form killed by theta_M is fixed by
    exp(pi theta_M), the pullback along exp(-pi M), which multiplies theta^I
    by the product of eps over I when exp(pi M) = diag(eps).  The embedding
    columns are the canonical kernel basis.  d_k is built on the ascending
    degree-k basis positions where the embedding is nonzero, with all rows,
    so each d_k restricts by one ``coordinates`` call, whose exact check is
    the d-stability arbiter: an image outside the next kernel raises
    ``failure``.
    """
    masks = [mask for mask in (sign_mask(m) for m, _ in operators) if mask]
    grading = Grading((0,) * n, sign_parities(n, masks))

    def kernel(k):
        builders = [partial(interior_matrix, x, n, k) for x in interiors]
        builders += [partial(theta, k) for _, theta in operators]
        within = [pos for pos, _ in grading.block(k)] if masks else None
        return Matrix.stacked_nullspace(builders, basis_size(n, k), within)

    embeddings = tuple(kernel(k) for k in range(n + 1))
    restricted = []
    for k in range(n):
        e = embeddings[k]
        support = sorted({i for i, _ in e.entries})
        local = {i: j for j, i in enumerate(support)}
        e = Matrix._trusted(len(support), e.ncols, {(local[i], j): v for (i, j), v in e.entries.items()})
        basis = multi_index_masks(n, k)
        d_k = alternating_differential_matrix(
            n, bracket, k, flip_sign=flip_sign, columns=[basis[i] for i in support]
        )
        d, outside = embeddings[k + 1].coordinates(d_k @ e)
        if d is None:
            raise failure(f"differential leaves the subspace at degree {k}, vector {outside}")
        restricted.append(d)
    complex = CochainComplex(
        dims=tuple(e.ncols for e in embeddings),
        differentials=tuple(restricted),
        product=EmbeddedProduct(BasisProduct(n), embeddings),
    )
    return EmbeddedSubcomplex(pair, complex, embeddings)


def basic_subcomplex(pair) -> EmbeddedSubcomplex:
    """Horizontal invariant subcomplex of Lambda g* for x ranging over h.

    Per degree, the basis is the kernel of the stacked i_x and theta_x
    matrices on the sign block of the ad_x, each built only on the columns
    where the kernel narrowed so far is nonzero; the differential is the
    ambient one, built on the basis's support and restricted to it
    (d-stability is verified exactly and its failure is a hard error).
    """
    g = pair.ambient
    return _embedded_subcomplex(
        pair,
        g.dim,
        g.bracket_basis,
        False,
        [(g.adjoint_matrix(x), partial(lie_derivative_matrix, g, x)) for x in pair.sub_basis],
        NotDStable,
        interiors=pair.sub_basis,
    )


def quotient_bracket_table(pair):
    """Projected brackets of the quotient lifts: (i, j) -> sparse dict on g/h."""
    g = pair.ambient
    proj = pair.projection_matrix
    lifts = pair.quotient_basis
    q = pair.dim_quotient
    table = {}
    for i in range(q):
        for j in range(i + 1, q):
            coords = proj.apply(g.bracket(lifts[i], lifts[j]))
            entry = {m: c for m, c in enumerate(coords) if c}
            if entry:
                table[(i, j)] = entry
    return table


def _quotient_bracket(pair):
    """The bracket function of ``quotient_bracket_table`` (i < j)."""
    table = quotient_bracket_table(pair)
    return lambda i, j: table.get((i, j), {})


def invariant_quotient_complex(pair) -> EmbeddedSubcomplex:
    """h-invariant forms on g/h with the opposite-sign differential.

    Invariance per degree is the kernel of the Lie-derivative action of
    every h generator, on the sign block of the action and built on the
    kernel's support as in ``basic_subcomplex``; the differential is that
    of ``quotient_differential``, built on the invariants' support and
    restricted to them.
    """
    q = pair.dim_quotient
    operators = [(a, partial(endo_action_matrix, a, q)) for a in pair.action]
    return _embedded_subcomplex(pair, q, _quotient_bracket(pair), True, operators, InternalInvariantError)


def compare_models(basic, invq, chain) -> tuple:
    """Verify the two relative models agree through (-s)^* exactly, and
    return the chain isomorphism: per degree k, the basic coordinates of
    ``chain[k]``, (-1)^k times the pullback of the invariant basis along the
    projection (``koszul.PairAnalysis.koszul_chain``).

    Checks per degree: equal dimensions, the pullback of invariant forms
    along the projection lands in the basic subspace, bijectivity, and the
    intertwining of the two differentials.  Any failure is a hard error.
    """
    matrices = []
    for k, pulled in enumerate(chain):
        b_dim = basic.complex.dim(k)
        i_dim = invq.complex.dim(k)
        if b_dim != i_dim:
            raise ModelMismatch(
                f"model dimensions differ in degree {k}: basic {b_dim}, invariant {i_dim}"
            )
        phi, outside = basic.embeddings[k].coordinates(pulled)
        if phi is None:
            raise ModelMismatch(
                f"pullback leaves the basic subspace at degree {k}, vector {outside}"
            )
        if phi.rank() != b_dim:
            raise ModelMismatch(f"comparison is not bijective in degree {k}")
        matrices.append(phi)
    try:
        check_chain_map(matrices, invq.complex, basic.complex)
    except NotAChainMap as exc:
        raise ModelMismatch(
            f"differentials do not intertwine at degree {exc.degree}, vector {exc.column}"
        ) from exc
    return tuple(matrices)


def restriction_map(pair, ambient: CochainComplex, sub: CochainComplex) -> tuple:
    """Pullback Lambda g* -> Lambda h* along the inclusion of the subalgebra.

    Degree k has shape (C(dim h, k), C(dim g, k)).  The maps are checked
    against ``ambient`` and ``sub``, the complexes of g and h (either may be
    a block), and a failure raises NotAChainMap.
    """
    incl = pair.sub_matrix
    maps = tuple(pullback_matrix(incl, k) for k in range(pair.ambient.dim + 1))
    check_chain_map(maps, ambient, sub)
    return maps
