"""Group, irrep, and fusion-rule tests for the algebra module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3double import algebra
from s3double.algebra import (
    ANYON_TABLE,
    ANYONS,
    CLASSES,
    ELEMENTS,
    E,
    INV_TABLE,
    MUL_TABLE,
    MU,
    ORDER,
    QUANTUM_DIMS,
    SIGMA,
    GroupElement,
)

elements = st.sampled_from(ELEMENTS)
anyons = st.sampled_from(ANYONS)


class TestGroup:
    def test_order_and_distinctness(self):
        assert len(set(ELEMENTS)) == ORDER == 6

    @given(elements, elements, elements)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(elements)
    def test_inverse(self, a):
        assert a * a.inverse() == E
        assert a.inverse() * a == E

    def test_defining_relation(self):
        assert SIGMA * MU * SIGMA == MU.inverse()
        assert MU * MU * MU == E
        assert SIGMA * SIGMA == E

    @given(elements, elements)
    def test_tables_match_objects(self, a, b):
        assert MUL_TABLE[a.index, b.index] == (a * b).index
        assert INV_TABLE[a.index] == a.inverse().index

    def test_class_equation(self):
        sizes = sorted(len(c.members) for c in CLASSES)
        assert sizes == [1, 2, 3]
        all_members = [g for c in CLASSES for g in c.members]
        assert sorted(all_members) == sorted(ELEMENTS)

    def test_centralizers(self):
        for cls in CLASSES:
            g = cls.representative
            centralizer = [h for h in ELEMENTS if h * g == g * h]
            assert sorted(centralizer) == sorted(cls.centralizer)


class TestIrreps:
    @pytest.mark.parametrize("letter", ANYONS)
    def test_centralizer_irrep_is_representation(self, letter):
        irr = ANYON_TABLE[letter].R
        for a in irr.domain:
            m = irr.matrix(a)
            assert np.allclose(m @ m.conj().T, np.eye(irr.dim), atol=1e-12)
            for b in irr.domain:
                assert np.allclose(
                    irr.matrix(a) @ irr.matrix(b), irr.matrix(a * b), atol=1e-12
                )

    def test_s3_character_orthogonality(self):
        irreps = [algebra.S3_TRIVIAL, algebra.S3_SIGN, algebra.S3_2DIM]
        for r1 in irreps:
            for r2 in irreps:
                inner = (
                    sum(
                        np.conj(r1.character(g)) * r2.character(g)
                        for g in ELEMENTS
                    )
                    / ORDER
                )
                assert abs(inner - (1 if r1 is r2 else 0)) < 1e-12


class TestDouble:
    def test_quantum_dimensions(self):
        assert tuple(QUANTUM_DIMS[a] for a in ANYONS) == (1, 1, 2, 3, 3, 2, 2, 2)
        assert sum(d * d for d in QUANTUM_DIMS.values()) == ORDER ** 2

    @given(anyons, elements, elements, elements, elements)
    @settings(max_examples=60, deadline=None)
    def test_algebra_multiplication(self, a, h1, g1, h2, g2):
        # (delta_{h1} g1)(delta_{h2} g2) = [h1 = g1 h2 g1^{-1}] delta_{h1} g1 g2
        m = algebra.double_matrix(a, h1, g1) @ algebra.double_matrix(a, h2, g2)
        if h1 == g1 * h2 * g1.inverse():
            expect = algebra.double_matrix(a, h1, g1 * g2)
        else:
            expect = np.zeros_like(m)
        assert np.allclose(m, expect, atol=1e-12)

    @pytest.mark.parametrize("letter", ANYONS)
    def test_modules_are_unitary(self, letter):
        d = ANYON_TABLE[letter].dim
        for g in ELEMENTS:
            m = sum(algebra.double_matrix(letter, h, g) for h in ELEMENTS)
            assert np.allclose(m @ m.conj().T, np.eye(d), atol=1e-12)


class TestFusion:
    def test_table_values(self):
        N = algebra.derive_fusion_rules()
        # spot values of the full product table
        assert algebra.fusion_outcomes("H", "H") == ["A", "B", "H"]
        assert algebra.fusion_outcomes("G", "G") == ["A", "B", "G"]
        assert algebra.fusion_outcomes("G", "H") == ["C", "F"]
        assert algebra.fusion_outcomes("D", "B") == ["E"]
        assert algebra.fusion_outcomes("D", "D") == ["A", "C", "F", "G", "H"]
        assert algebra.fusion_outcomes("C", "C") == ["A", "B", "C"]
        assert algebra.fusion_outcomes("D", "E") == ["B", "C", "F", "G", "H"]
        assert all(v in (0, 1) for v in N.values())

    @given(anyons, anyons)
    @settings(max_examples=64, deadline=None)
    def test_dimension_sum_rule(self, a, b):
        total = sum(
            QUANTUM_DIMS[c] for c in algebra.fusion_outcomes(a, b)
        )
        assert total == QUANTUM_DIMS[a] * QUANTUM_DIMS[b]

    @given(anyons, anyons)
    @settings(max_examples=64, deadline=None)
    def test_commutativity(self, a, b):
        N = algebra.derive_fusion_rules()
        for c in ANYONS:
            assert N[a, b, c] == N[b, a, c]

    def test_associativity(self):
        N = algebra.derive_fusion_rules()
        for a in ANYONS:
            for b in ANYONS:
                for c in ANYONS:
                    for d in ANYONS:
                        lhs = sum(N[a, b, e] * N[e, c, d] for e in ANYONS)
                        rhs = sum(N[b, c, f] * N[a, f, d] for f in ANYONS)
                        assert lhs == rhs

    def test_character_rules_equal_kronecker_projection(self):
        # N^c_ab as the trace of the central idempotent of c over the
        # Kronecker coproduct module V_a (x) V_b, divided by dim V_c
        N = algebra.derive_fusion_rules()
        assert len(N) == 512
        for a in ANYONS:
            for b in ANYONS:
                for c in ANYONS:
                    irrep = ANYON_TABLE[c]
                    total = 0
                    for cc in irrep.C.members:
                        tau = irrep.C.tau[cc]
                        for n in irrep.C.centralizer:
                            g = tau * n * tau.inverse()
                            trace = np.trace(algebra.tensor_matrix(a, b, cc, g))
                            total += irrep.R.character(n).conjugate() * trace
                    val = total * irrep.R.dim / len(irrep.C.centralizer) / irrep.dim
                    assert abs(val - N[a, b, c]) < 1e-9, (a, b, c, val)

    def test_self_duality_and_vacuum(self):
        N = algebra.derive_fusion_rules()
        for a in ANYONS:
            assert N[a, a, "A"] == 1  # every anyon is its own antiparticle
            assert N["A", a, a] == 1 and N[a, "A", a] == 1
