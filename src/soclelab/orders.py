"""Monomial orders.

Every order exposes ``key(exponents) -> tuple`` such that the usual tuple
comparison of keys realizes the order (bigger key means bigger monomial).
Both MonomialOrder kinds refine total degree; EliminationOrder does
not, but is still a term order.
"""

from .errors import StructuralError


class MonomialOrder:
    """A degree-refining order: degrevlex or deglex, up to a permutation.

    The permutation lists variable indices from most to least significant;
    None means the natural order (x1 > x2 > ...).
    """

    KINDS = ("degrevlex", "deglex")

    def __init__(self, kind="degrevlex", permutation=None):
        if kind not in self.KINDS:
            raise StructuralError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.permutation = tuple(permutation) if permutation is not None else None

    def _arranged(self, exps):
        if self.permutation is None:
            return exps
        if len(self.permutation) != len(exps):
            raise StructuralError("permutation length does not match variable count")
        return tuple(exps[i] for i in self.permutation)

    def key(self, exps):
        e = self._arranged(exps)
        if self.kind == "degrevlex":
            return (sum(e),) + tuple(-e[i] for i in range(len(e) - 1, -1, -1))
        return (sum(e),) + tuple(e)

    def compare(self, a, b):
        """-1, 0, or 1 as the first monomial is smaller, equal, or larger."""
        if len(a) != len(b):
            raise StructuralError("exponent vectors of different lengths")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and other.kind == self.kind
            and other.permutation == self.permutation
        )

    def __hash__(self):
        return hash((self.kind, self.permutation))

    def __repr__(self):
        if self.permutation is None:
            return f"MonomialOrder({self.kind!r})"
        return f"MonomialOrder({self.kind!r}, {self.permutation})"


class EliminationOrder:
    """Block order: the first ``block`` variables dominate, degrevlex inside.

    The auxiliary-variable intersection construction needs it: an
    element is free of the auxiliary block iff its leading monomial is.
    The package computes intersections through ``syzygies_over`` instead;
    the tests keep that construction as a reference.
    """

    def __init__(self, block=1):
        self.block = block

    def key(self, exps):
        head, tail = exps[: self.block], exps[self.block :]
        return (
            (sum(head),)
            + tuple(-head[i] for i in range(len(head) - 1, -1, -1))
            + (sum(tail),)
            + tuple(-tail[i] for i in range(len(tail) - 1, -1, -1))
        )

    def compare(self, a, b):
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


DEGREVLEX = MonomialOrder("degrevlex")
DEGLEX = MonomialOrder("deglex")
