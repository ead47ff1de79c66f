"""Monodromy representations of the 2- and 3-punctured projective line.

A representation is stored through the images of the free-group generators;
the loop around infinity carries the inverse of their ordered product P, so
the local monodromies at all punctures multiply to the identity by
construction.  Building a representation extracts the eigenvalue data at
every puncture: at infinity these are the reciprocals of P's eigenvalues,
so P is never inverted.  The infinity monodromy itself is computed only
when it is asked for.  Whether a generator is singular is decided where
its eigenvalues are solved for, in ``eigen._eigenvalues``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eigen import DEFAULT_CLUSTER_TOL, TOL_BOUND, EigenData, _eigenvalues, checked_tolerance
from .eigen import reciprocal_eigenvalues
from .errors import DimensionMismatch, SingularMatrix, ZeroEigenvalue
from .matrix import Matrix

SUPPORTED_PUNCTURES = (2, 3)


@dataclass(frozen=True)
class Representation:
    """Images of the fundamental-group generators, one per finite puncture."""

    punctures: int
    generators: tuple[Matrix, ...]

    def __post_init__(self):
        if self.punctures not in SUPPORTED_PUNCTURES:
            raise DimensionMismatch(
                f"punctures must be one of {SUPPORTED_PUNCTURES}, got {self.punctures}"
            )
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) != self.punctures - 1:
            raise DimensionMismatch(
                f"{self.punctures} punctures require {self.punctures - 1} generators, "
                f"got {len(gens)}"
            )
        dim = gens[0].n
        if any(g.n != dim for g in gens):
            raise DimensionMismatch("all generators must share one dimension")

    @property
    def dim(self) -> int:
        return self.generators[0].n


@dataclass(frozen=True)
class PuncturedRepresentation:
    """A representation together with its puncture-by-puncture residue data.

    ``local_eigen`` is ordered like the punctures: 0, [1,] infinity.
    """

    rep: Representation
    local_eigen: tuple[EigenData, ...]

    @property
    def infinity_monodromy(self) -> Matrix:
        return monodromy_at_infinity(self.rep.generators)

    @property
    def punctures(self) -> int:
        return self.rep.punctures

    @property
    def dim(self) -> int:
        return self.rep.dim

    def local_monodromies(self) -> tuple[Matrix, ...]:
        return self.rep.generators + (self.infinity_monodromy,)

    def warnings(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for e in self.local_eigen:
            for w in e.warnings:
                seen.setdefault(w)
        return tuple(seen)


def monodromy_at_infinity(generators: tuple[Matrix, ...] | list[Matrix]) -> Matrix:
    """Inverse of the left-to-right product of the generator images."""
    gens = list(generators)
    product = gens[0]
    for g in gens[1:]:
        product = product @ g
    return product.inverse()


def build(rep: Representation, tol: float = DEFAULT_CLUSTER_TOL) -> PuncturedRepresentation:
    """Complete a representation with the eigenvalue data of its local
    monodromies.

    The eigenvalues at infinity are the reciprocals of those of the
    generator product: at two punctures the product is the generator
    itself, whose data is reused; at three it is ``m0 @ m1``.  A ``tol``
    outside (0, TOL_BOUND) raises InputFormatError; the solves, which do
    not check it again, raise for a singular generator or product, which
    the message names.
    """
    checked_tolerance(tol, "tol", TOL_BOUND)
    gens = rep.generators
    gen_eigen = tuple(_named_eigenvalues(g, tol, f"generator {i}") for i, g in enumerate(gens))
    product_eigen = (
        gen_eigen[0]
        if len(gens) == 1
        else _named_eigenvalues(gens[0] @ gens[1], tol, "product m0·m1")
    )
    eigen = gen_eigen + (reciprocal_eigenvalues(product_eigen, tol),)

    return PuncturedRepresentation(rep, eigen)


def _named_eigenvalues(m: Matrix, tol: float, name: str) -> EigenData:
    """``_eigenvalues(m, tol)``, with ``name`` prefixed to the message of a
    SingularMatrix or ZeroEigenvalue."""
    try:
        return _eigenvalues(m, tol)
    except (SingularMatrix, ZeroEigenvalue) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def conjugate(rep: Representation, s: Matrix) -> Representation:
    """Replace every generator image M by s M s^-1."""
    if s.n != rep.dim:
        raise DimensionMismatch("conjugating matrix dimension does not match")
    s_inv = s.inverse()
    return Representation(rep.punctures, tuple(s @ g @ s_inv for g in rep.generators))
