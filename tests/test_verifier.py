import numpy as np
import pytest

from pistr.graphs import (EdgeLabeling, Graph, complete_graph, disjoint_union,
                          labeled_graph_to_matrix, matrix_to_labeled_graph)
from pistr.engine import catalog_matrix
from pistr.matrices import direct_sum, fixed_matrix, m_matrix, named_family
from pistr.verifier import ProductDegree, check_matrix, factorize, is_product_irregular

from conftest import (brute_products, brute_witness, deadline, extend_with_ones,
                      permute_graph, random_graph_no_isolates, random_labeling)


def assert_matches_brute(report, m):
    """The report's degrees, verdict and witness are those of the brute
    row products of m."""
    products = brute_products(m)
    witness = brute_witness(products)
    assert [d.value for d in report.degrees] == products
    assert [ProductDegree.from_value(p) for p in products] == list(report.degrees)
    assert (report.ok, report.witness) == (witness is None, witness)


class TestProductDegree:
    def test_label_one_is_empty(self):
        assert ProductDegree.from_value(1).factors == ()
        assert ProductDegree.from_value(1).value == 1
        with pytest.raises(ValueError, match="^labels must be positive$"):
            ProductDegree.from_value(0)

    def test_pair_collapse(self):
        # labels 2, 3, 2 at one vertex: exponents 2 of 2 and 1 of 3
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        labeling = EdgeLabeling.make(g, {(0, 1): 2, (0, 2): 3, (0, 3): 2})
        d = is_product_irregular(labeling).degrees[0]
        assert d.factors == ((2, 2), (3, 1))
        assert d.value == 12


def trial_division(v):
    """(prime, exponent) pairs of v by dividing by every d up to its root."""
    rest, d, out = v, 2, []
    while d * d <= rest:
        e = 0
        while rest % d == 0:
            rest //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out) + (((rest, 1),) if rest > 1 else ())


class TestFactorize:
    def test_matches_trial_division_up_to_1e5(self):
        assert all(factorize(v) == trial_division(v) for v in range(1, 10**5 + 1))

    def test_two_31_bit_primes(self):
        # no factor below 2^10: Miller-Rabin says composite, rho splits it
        p, q = 2147483629, 2147483647
        with deadline(2):
            assert factorize(p * q) == ((p, 1), (q, 1))
            assert factorize(q * q * 12) == ((2, 2), (3, 1), (q, 2))

    def test_large_primes(self):
        with deadline(2):
            assert factorize(2**61 - 1) == ((2**61 - 1, 1),)
            # prime, and past the bound 3.2e23 of the 12 bases 2..37
            assert factorize(10**24 + 7) == ((10**24 + 7, 1),)
            assert factorize((2**31 - 1) * (2**61 - 1)) == ((2**31 - 1, 1), (2**61 - 1, 1))


class TestProductDegreeOfVertices:
    def test_triangle_degrees(self):
        _, labeling = matrix_to_labeled_graph(fixed_matrix("T"))
        degrees = is_product_irregular(labeling).degrees
        assert [d.factors for d in degrees] == [((2, 1),), ((3, 1),), ((2, 1), (3, 1))]

    @pytest.mark.parametrize("n", [4, 5, 9, 17])
    def test_l_row_three_degree(self, n):
        _, labeling = matrix_to_labeled_graph(catalog_matrix((2, n)))
        assert is_product_irregular(labeling).degrees[2].factors == ((2, n - 1), (3, 1))

    def test_all_ones(self):
        g = complete_graph(3)
        labeling = EdgeLabeling.make(g, {e: 1 for e in g.edges})
        assert is_product_irregular(labeling).degrees[0].value == 1

    def test_isolated_vertex_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        labeling = EdgeLabeling.make(g, {(0, 1): 2})
        with pytest.raises(ValueError, match="vertex 2 is isolated"):
            is_product_irregular(labeling)


class TestIrregularity:
    def test_t_is_irregular(self):
        _, labeling = matrix_to_labeled_graph(fixed_matrix("T"))
        report = is_product_irregular(labeling)
        assert report.ok and report.witness is None

    def test_a4_b4_fails(self):
        report = check_matrix(direct_sum([named_family(4, "A"), named_family(4, "B")]))
        assert not report.ok
        u, v = report.witness
        assert report.degrees[u] == report.degrees[v]

    def test_labels_beyond_int64(self):
        # the labels are an object array; vertices 1 and 2 share 2^70 * 3
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        labeling = EdgeLabeling.make(g, {(0, 1): 2**70, (1, 2): 3, (0, 2): 2**70,
                                         (2, 3): 1})
        assert labeling.values.dtype == object
        report = is_product_irregular(labeling)
        assert [d.value for d in report.degrees] == [2**140, 2**70 * 3, 2**70 * 3, 1]
        assert (report.ok, report.witness) == (False, (1, 2))

    def test_k2_always_fails(self):
        g = complete_graph(2)
        labeling = EdgeLabeling.make(g, {(0, 1): 3})
        report = is_product_irregular(labeling)
        assert not report.ok and report.witness == (0, 1)

    def test_witness_is_lexicographically_smallest(self):
        # path 0-1-2-3 with equal end labels: degrees [a, aw, aw, a];
        # colliding pairs are (0,3) and (1,2), and (0,3) is smaller
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        labeling = EdgeLabeling.make(g, {(0, 1): 2, (1, 2): 3, (2, 3): 2})
        report = is_product_irregular(labeling)
        assert report.witness == (0, 3)

    def test_all_ones_collide(self):
        g = complete_graph(3)
        report = is_product_irregular(EdgeLabeling.make(g, {e: 1 for e in g.edges}))
        assert not report.ok and report.witness == (0, 1)
        assert all(d.factors == () for d in report.degrees)

    @pytest.mark.parametrize("isolated", [0, 2, 5])
    def test_isolated_vertex_names_it(self, isolated):
        others = [v for v in range(6) if v != isolated]
        g = Graph.from_edges(6, zip(others, others[1:]))
        labeling = EdgeLabeling.make(g, {e: 2 for e in g.edges})
        with pytest.raises(ValueError, match=f"vertex {isolated} is isolated"):
            is_product_irregular(labeling)

    def test_matches_brute_product_beyond_three(self, rng):
        # Labels 4, 5 and 6 bring in primes and exponents beyond 2 and 3.
        verdicts = set()
        for _ in range(80):
            g = random_graph_no_isolates(rng, n_min=4, n_max=10)
            labels = random_labeling(rng, g, s=rng.choice((4, 6)))
            for e, w in zip(sorted(g.edges), (4, 5, 6)):
                labels[e] = w
            labeling = EdgeLabeling.make(g, labels)
            m = labeled_graph_to_matrix(labeling)
            assert_matches_brute(is_product_irregular(labeling), m)
            assert_matches_brute(check_matrix(m), m)
            verdicts.add(is_product_irregular(labeling).ok)
        assert verdicts == {True, False}

    def test_several_colliding_groups_match_brute(self, rng):
        # Two to four copies of one labeled graph, the vertices shuffled:
        # each vertex collides with its copies, so several groups collide at
        # once, and the witness must be the smallest pair over all of them.
        # A third of the labelings take labels from 2^63 on (object arrays).
        # The verdict is read before the degrees, which are built on demand.
        several = 0
        for trial in range(60):
            g = random_graph_no_isolates(rng, n_min=3, n_max=6)
            labels = random_labeling(rng, g, s=rng.choice((3, 6)))
            if trial % 3 == 0:
                labels = {e: w << rng.choice((63, 70)) for e, w in labels.items()}
            copies = rng.randint(2, 4)
            union = g
            for _ in range(copies - 1):
                union = disjoint_union(union, g)
            n = g.n_vertices
            union_labels = {(u + k * n, v + k * n): w for k in range(copies)
                            for (u, v), w in labels.items()}
            h, _, h_labels = permute_graph(rng, union, union_labels)
            labeling = EdgeLabeling.make(h, h_labels)
            assert (labeling.values.dtype == object) == (trial % 3 == 0)
            m = labeled_graph_to_matrix(labeling)
            products = brute_products(m)
            several += len(set(products)) > 1
            report = is_product_irregular(labeling)
            assert (report.ok, report.witness) == (False, brute_witness(products))
            assert [d.value for d in report.degrees] == products
            assert_matches_brute(check_matrix(m), m)
        assert several >= 50

    def test_reports_compare_by_verdict_witness_and_degrees(self, rng):
        for _ in range(40):
            g = random_graph_no_isolates(rng, n_min=4, n_max=8)
            labels = random_labeling(rng, g, s=4)
            first = is_product_irregular(EdgeLabeling.make(g, labels))
            again = is_product_irregular(EdgeLabeling.make(g, dict(labels)))
            assert first == again and hash(first) == hash(again)
            assert first == check_matrix(labeled_graph_to_matrix(EdgeLabeling.make(g, labels)))
            e = rng.choice(sorted(labels))
            changed = is_product_irregular(EdgeLabeling.make(g, {**labels, e: labels[e] % 4 + 1}))
            assert first != changed  # the two ends of e change degree
            assert first != (first.ok, first.witness, first.degrees)


class TestCheckMatrix:
    def test_m7_ok(self):
        assert check_matrix(m_matrix(7, 1, 2, 3)).ok

    def test_t5_pair_ok(self):
        assert check_matrix(direct_sum([fixed_matrix("T5"),
                                        fixed_matrix("T5_TILDE")])).ok

    def test_b5_c5_fails(self):
        assert not check_matrix(direct_sum([named_family(5, "B"),
                                            named_family(5, "C")])).ok

    def test_zero_row_rejected(self):
        m = np.zeros((3, 3), dtype=int)
        m[0, 1] = m[1, 0] = 2
        with pytest.raises(ValueError, match="vertex 2 is isolated"):
            check_matrix(m)

    def test_empty_matrix_ok(self):
        report = check_matrix(np.zeros((0, 0), dtype=int))
        assert report.ok and report.witness is None and report.degrees == ()

    def test_float_matrix_with_integer_values(self):
        m = fixed_matrix("T")
        assert check_matrix(m.astype(float)) == check_matrix(m)

    @pytest.mark.parametrize("m", [
        np.zeros((2, 3), dtype=int),                   # not square
        np.array([[0, 1], [2, 0]]),                    # asymmetric
        np.array([[0, -1], [-1, 0]]),                  # negative
        np.array([[0, 1.5], [1.5, 0]]),                # not integral
        np.array([[1, 1], [1, 0]]),                    # loop
        np.array([[0, 1.5], [1.5, 0]], dtype=object),  # not an integer
        np.array([[0, None], [None, 0]], dtype=object),
        np.array([[0, "1"], ["1", 0]], dtype=object),
    ])
    def test_malformed_rejected(self, m):
        with pytest.raises(ValueError):
            check_matrix(m)

    def test_object_matrix_beyond_int64(self):
        # An object matrix of Python ints keeps labels past 2^63 exact,
        # and the matrix comes back from its labeling unchanged.
        for w in (2**70, 2**63, 2**64 - 1):
            m = np.array([[0, w, 1], [w, 0, 3], [1, 3, 0]], dtype=object)
            assert_matches_brute(check_matrix(m), m)
            _, labeling = matrix_to_labeled_graph(m)
            assert labeling.strength == w
            back = labeled_graph_to_matrix(labeling)
            assert back.tolist() == m.tolist()
        m = np.array([[0, 2**64 - 1], [2**64 - 1, 0]], dtype=np.uint64)
        assert matrix_to_labeled_graph(m)[1].values.tolist() == [2**64 - 1]

    def test_exact_at_scale(self):
        report = check_matrix(m_matrix(60, 3, 3, 3))
        assert all(d.factors == ((3, 59),) for d in report.degrees)
        assert report.degrees[0].value == 3**59 and len(report.degrees) == 60
        assert not report.ok and report.witness == (0, 1)

    def test_matches_graph_verdict(self, rng):
        for _ in range(60):
            g = random_graph_no_isolates(rng, n_min=4, n_max=8)
            labeling = EdgeLabeling.make(g, random_labeling(rng, g, s=4))
            m = labeled_graph_to_matrix(labeling)
            assert_matches_brute(check_matrix(m), m)

    def test_general_label_path(self):
        m = m_matrix(8, 5, 7, 11)
        assert_matches_brute(check_matrix(m), m)


class TestInvariances:
    def test_one_labels_are_transparent(self, rng):
        for _ in range(30):
            g = random_graph_no_isolates(rng, n_min=4, n_max=7)
            labeling = EdgeLabeling.make(g, random_labeling(rng, g))
            missing = [(u, v) for u in range(g.n_vertices)
                       for v in range(u + 1, g.n_vertices) if not g.has_edge(u, v)]
            if not missing:
                continue
            extended = extend_with_ones(labeling, missing[:2])
            u, v = max(g.edges)
            with pytest.raises(ValueError, match=rf"^edge \({u}, {v}\) already present$"):
                extend_with_ones(labeling, [(v, u)])
            before = is_product_irregular(labeling)
            after = is_product_irregular(extended)
            assert before.ok == after.ok
            assert [d.factors for d in before.degrees] == \
                [d.factors for d in after.degrees]

    def test_permutation_invariance(self, rng):
        for _ in range(30):
            g = random_graph_no_isolates(rng, n_min=4, n_max=7)
            labels = random_labeling(rng, g)
            labeling = EdgeLabeling.make(g, labels)
            h, perm, new_labels = permute_graph(rng, g, labels)
            relabeled = EdgeLabeling.make(h, new_labels)
            assert is_product_irregular(labeling).ok == \
                is_product_irregular(relabeled).ok

    def test_direct_sum_degrees_concatenate(self):
        a, b = named_family(5, "A"), named_family(7, "B")
        ra, rb = check_matrix(a), check_matrix(b)
        rsum = check_matrix(direct_sum([a, b]))
        assert list(rsum.degrees) == list(ra.degrees) + list(rb.degrees)
