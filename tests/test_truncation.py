"""A negative truncation depth of the residue-field resolution is refused
before any work, by the criterion scan and by the Ext^i(k, H^j) begin it
calls; depth 0 stays allowed (a resolution of length 0 is truncated
there)."""

import pytest

from soclelab.errors import DomainError
from soclelab.fields import field_of
from soclelab.groebner import Ideal
from soclelab.localcoh import ext_k_begin
from soclelab.modules import quotient_module
from soclelab.poly import PolyRing
from soclelab.rings import RingPresentation
from soclelab.scans import criterion_check


@pytest.fixture(scope="module")
def plane():
    S = PolyRing(field_of(101), ("x", "y"))
    return S, RingPresentation(S)


@pytest.mark.parametrize("truncation", [-1, -3])
def test_criterion_check_refuses_a_negative_truncation(plane, truncation):
    S, R = plane
    x, _ = S.gens()
    with pytest.raises(DomainError, match="truncation must be >= 0"):
        criterion_check(R, Ideal(R, [x]), 1, truncation=truncation)


@pytest.mark.parametrize("truncation", [-1, -3])
def test_ext_k_begin_refuses_a_negative_truncation(plane, truncation):
    S, R = plane
    x, y = S.gens()
    module = quotient_module(R, [x**2, x * y])
    with pytest.raises(DomainError, match="truncation must be >= 0"):
        ext_k_begin(0, 0, module, truncation=truncation)


def test_truncation_zero_and_none_agree(plane):
    S, R = plane
    x, y = S.gens()
    module = quotient_module(R, [x**2, x * y])
    assert ext_k_begin(0, 0, module, truncation=0) == ext_k_begin(0, 0, module)
