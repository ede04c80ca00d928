"""Argument guards: each refuses a bad argument with its typed error and message."""

import numpy as np
import pytest

from mvx import numcore as nc
from mvx.distributions import GaussianParams, Likelihood
from mvx.errors import ContractError, DimensionError, DomainError
from mvx.pooling import ExpertSet, gpoe, poe


def _ones(*shape):
    return nc.constant(np.ones(shape))


def _gaussian(*shape):
    return GaussianParams(_ones(*shape), _ones(*shape))


_GUARDS = {
    "matmul-rank": (lambda: nc.matmul(_ones(3), _ones(3, 2)), DimensionError,
                    "matmul: expected rank-2 operands, got (3,) and (3, 2)"),
    "matmul-inner-dim": (lambda: nc.matmul(_ones(2, 3), _ones(4, 2)), DimensionError,
                         "matmul: inner dimensions disagree: (2, 3) x (4, 2)"),
    "transpose-rank": (lambda: nc.transpose(_ones(3)), DimensionError,
                       "transpose: expected rank-2, got (3,)"),
    "row-rank": (lambda: nc.row(_ones(3), 0), DimensionError, "row: expected rank-2, got (3,)"),
    "row-index-past-end": (lambda: nc.row(_ones(2, 3), 2), DimensionError,
                           "row: index 2 out of range for (2, 3)"),
    "row-index-negative": (lambda: nc.row(_ones(2, 3), -1), DimensionError,
                           "row: index -1 out of range for (2, 3)"),
    "reshape_col-rank": (lambda: nc.reshape_col(_ones(2, 3)), DimensionError,
                         "reshape_col: expected rank-1, got (2, 3)"),
    "concat-empty": (lambda: nc.concat_cols([]), ContractError, "concat_cols: empty input"),
    "concat-batch-axis": (lambda: nc.concat_cols([_ones(2, 3), _ones(3, 3)]), DimensionError,
                          "concat_cols: operands must share the batch axis"),
    "concat-rank": (lambda: nc.concat_cols([_ones(2, 3), _ones(2)]), DimensionError,
                    "concat_cols: operands must share the batch axis"),
    "broadcast": (lambda: nc.add(_ones(2, 3), _ones(2)), DimensionError,
                  "add: shapes (2, 3) and (2,) are not broadcastable"),
    "empty-reduction": (lambda: nc.sum_(_ones(0, 3)), DimensionError, "sum: empty reduction"),
    "empty-reduction-axis": (lambda: nc.logsumexp(_ones(2, 0), axis=1), DimensionError,
                             "logsumexp: empty reduction axis 1"),
    "reduction-axis-range": (lambda: nc.mean(_ones(2, 3), axis=2), DimensionError,
                             "mean: axis 2 out of range for shape (2, 3)"),
    "sym_eig-non-square": (lambda: nc.sym_eig(_ones(2, 3)), DimensionError,
                           "sym_eig: expected square matrix, got (2, 3)"),
    "sym_eig-above-256": (lambda: nc.sym_eig(nc.constant(np.eye(257))), ContractError,
                          "sym_eig: dimension 257 exceeds the 256 desk-scale guard"),
    "sym_eig-asymmetric": (lambda: nc.sym_eig(nc.constant([[0.0, 1.0], [0.0, 0.0]])),
                           ContractError, "sym_eig: input not symmetric (max asymmetry 1.000e+00)"),
    "likelihood-kind": (lambda: Likelihood("Poisson", _ones(2, 3)), DomainError,
                        "Likelihood: unknown kind 'Poisson'"),
    "poe-no-expert": (lambda: poe([]), ContractError, "poe: at least one expert required"),
    "expert-set-no-expert": (lambda: ExpertSet([]), ContractError,
                             "ExpertSet: at least one expert required"),
    "poe-shape": (lambda: poe([_gaussian(2, 3), _gaussian(2, 4)]), DimensionError,
                  "poe: experts must share shape"),
    "gpoe-weight-count": (lambda: gpoe([_gaussian(2, 3)], [1.0, 1.0]), ContractError,
                          "gpoe: 2 weights for 1 experts"),
    "gpoe-weight-shape": (lambda: gpoe([_gaussian(2, 3)], [_ones(4)]), DimensionError,
                          "gpoe: weight (4,) vs experts of dim (3,)"),
    "gpoe-weight-zero": (lambda: gpoe([_gaussian(2, 3)], [0.0]), DomainError,
                         "gpoe: weights must be strictly positive"),
    "gpoe-weight-row-negative": (
        lambda: gpoe([_gaussian(2, 3)], [nc.constant([1.0, -1.0, 1.0])]), DomainError,
        "gpoe: weights must be strictly positive"),
}


@pytest.mark.parametrize("call, error, message", list(_GUARDS.values()), ids=list(_GUARDS))
def test_an_argument_guard_raises_its_typed_error_and_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
