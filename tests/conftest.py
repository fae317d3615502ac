"""Fixtures shared by the test modules."""

import pytest

from qkneser.intmatrix import IntMatrix


@pytest.fixture
def no_matrix_products(monkeypatch):
    # IntMatrix.__matmul__ raises: the certificate reads a few rows of A
    # and forms no n x n product
    def refuse(self, other):
        raise AssertionError("the certificate formed a matrix product")

    monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
