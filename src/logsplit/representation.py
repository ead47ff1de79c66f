"""Monodromy representations of the 2- and 3-punctured projective line.

A representation is stored through the images of the free-group generators;
the loop around infinity carries the inverse of their ordered product P, so
the local monodromies at all punctures multiply to the identity by
construction.  Building a representation extracts the eigenvalue data at
every puncture: at infinity these are the reciprocals of P's eigenvalues,
so P is never inverted.  The infinity monodromy itself is computed only
when it is asked for.  Whether a generator is singular is decided where
its eigenvalues are solved for, in ``eigen.eigenvalues``.  Building also
clears each exact real 2x2 generator once into its integer form
(``eigen.integer_form``), which the generator and product solves and the
invariant-line analysis read; a generator of another dimension is not
cleared.
"""

from __future__ import annotations

from collections import namedtuple

from .eigen import DEFAULT_CLUSTER_TOL, EigenData, _solve, _solve_product, integer_form
from .eigen import reciprocal_eigenvalues
from .errors import DimensionMismatch, SingularMatrix, ZeroEigenvalue
from .matrix import Matrix

SUPPORTED_PUNCTURES = (2, 3)


class Representation(namedtuple("Representation", "punctures generators")):
    """Images of the fundamental-group generators, one per finite puncture:
    ``punctures`` (2 or 3) and ``generators``, a tuple of ``punctures - 1``
    Matrix of one dimension."""

    __slots__ = ()

    def __new__(cls, punctures: int, generators):
        if punctures not in SUPPORTED_PUNCTURES:
            raise DimensionMismatch(
                f"punctures must be one of {SUPPORTED_PUNCTURES}, got {punctures}"
            )
        gens = tuple(generators)
        if len(gens) != punctures - 1:
            raise DimensionMismatch(
                f"{punctures} punctures require {punctures - 1} generators, got {len(gens)}"
            )
        dim = gens[0].n
        if any(g.n != dim for g in gens):
            raise DimensionMismatch("all generators must share one dimension")
        return tuple.__new__(cls, (punctures, gens))

    @classmethod
    def _make(cls, iterable):
        # So that ``_replace`` validates too.
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return self.generators[0].n


class PuncturedRepresentation(
    namedtuple("PuncturedRepresentation", "rep local_eigen integer_forms", defaults=(None,))
):
    """A representation ``rep`` together with its puncture-by-puncture
    residue data ``local_eigen``, a tuple of EigenData ordered like the
    punctures: 0, [1,] infinity, and ``integer_forms``, one
    ``eigen.integer_form`` per generator (None for a generator that is not
    an exact real 2x2), or None, the default, when they were not made;
    consumers then clear the generators themselves.  It compares and
    hashes as the pair (``rep``, ``local_eigen``): ``integer_forms`` is
    derived from ``rep``.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        # A plain tuple compares as (rep, local_eigen) too, so that equal
        # values hash equal.
        if isinstance(other, PuncturedRepresentation):
            other = other[:2]
        return self[:2] == other

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

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

    Each exact real 2x2 generator is cleared once, into the integer form
    that is kept as ``integer_forms`` and that every exact consumer reads:
    its own solve, the product's and the invariant-line analysis.  The
    eigenvalues at infinity are the reciprocals of those of the generator
    product: at two punctures the product is the generator itself, whose
    data is reused; at three it is ``m0 @ m1``, whose eigenvalues
    ``product_eigenvalues`` reads from the trace and determinant of the
    integer forms of an exact real 2x2 pair, without forming it.  The
    solves raise InputFormatError for a ``tol`` outside (0, TOL_BOUND),
    and raise for a singular generator or product, which the message
    names.
    """
    gens = rep.generators
    forms = tuple(map(integer_form, gens))
    gen_eigen = tuple(
        _named(f"generator {i}", _solve, g, tol, form)
        for i, (g, form) in enumerate(zip(gens, forms))
    )
    product_eigen = (
        gen_eigen[0]
        if len(gens) == 1
        else _named("product m0·m1", _solve_product, gens[0], gens[1], tol, forms)
    )
    eigen = gen_eigen + (reciprocal_eigenvalues(product_eigen, tol),)

    return PuncturedRepresentation(rep, eigen, forms)


def _named(name: str, solve, *args) -> EigenData:
    """``solve(*args)``, with ``name`` prefixed to the message of a
    SingularMatrix or ZeroEigenvalue."""
    try:
        return solve(*args)
    except (SingularMatrix, ZeroEigenvalue) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def conjugate(rep: Representation, s: Matrix) -> Representation:
    """Replace every generator image M by s M s^-1."""
    if s.n != rep.dim:
        raise DimensionMismatch("conjugating matrix dimension does not match")
    s_inv = s.inverse()
    return Representation(rep.punctures, tuple(s @ g @ s_inv for g in rep.generators))
