import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import concepts
from gaplab.concepts import (
    PointSet,
    ProjectionClass,
    TableClass,
    all_functions_class,
    build_shattered_set,
    class_from_json_dict,
    enumerated_domain,
    full_hypercube,
    full_mask_words,
    label_rows,
    pack_bit_rows,
    row_keys,
    unpack_bit_rows,
    vc_dimension_bruteforce,
)
from gaplab.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    PointNotInDomainError,
)
from gaplab.distributions import FiniteSupportDistribution, distribution_from_json_dict
from reference import Point, eval_concept, is_shattered, row_points


def random_strings(count, n, seed):
    """`count` distinct random 0/1 strings of length n, n >= 7."""
    rng = np.random.default_rng(seed)
    strings = {"".join(map(str, rng.integers(0, 2, n))) for _ in range(4 * count)}
    return sorted(strings)[:count]


class TestPointSet:
    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 127, 128, 130, 200])
    def test_string_roundtrip(self, n):
        strings = ["0", "1"] if n == 1 else random_strings(5, n, n)
        points = PointSet(strings)
        assert (points.n, len(points)) == (n, len(strings))
        assert points.rows.shape == (len(strings), (n + 63) // 64)
        assert not points.rows.flags.writeable
        assert points.to_strings() == strings
        assert [p.bits for p in row_points(points.rows, n)] == strings
        assert PointSet.from_rows(points.rows, n) == points

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_json_domain_and_support_roundtrip(self, n):
        strings = ["1", "0"] if n == 1 else random_strings(3, n, 7 * n)
        table = {"kind": "table", "domain": strings,
                 "tables": ["1" * len(strings), "0" * len(strings)]}
        cls = class_from_json_dict(table)
        assert cls.domain.to_strings() == strings and cls.to_json_dict() == table
        probs = [0.5] * 2 if n == 1 else [0.5, 0.25, 0.25]
        law = {"kind": "finite", "support": strings, "probs": probs}
        dist = distribution_from_json_dict(law)
        assert dist.n == n and dist.to_json_dict() == law
        assert dist.support == cls.domain

    def test_positions_are_found_by_row_and_n(self):
        points = PointSet(["01", "10", "00"])
        assert points.find(row_keys(points.rows[[2, 0, 2]], 2)) == [2, 0, 2]
        with pytest.raises(PointNotInDomainError, match="point '11' is not in the table domain"):
            points.find(PointSet(["11"]).keys())
        # "010" packs to the same word as "01", but is a point of another n.
        with pytest.raises(PointNotInDomainError, match="'010'"):
            points.find(row_keys(PointSet(["010"]).rows, 3))

    def test_empty_set(self):
        points = PointSet([])
        assert (points.n, len(points), points.to_strings()) == (0, 0, [])

    @pytest.mark.parametrize("strings, error", [
        (["01", "0a"], InvalidParameterError),
        (["01", 1], InvalidParameterError),
        (["01", "011"], DimensionMismatchError),
        (["01", "10", "01"], InvalidParameterError),
    ], ids=["not-0/1", "not-a-string", "unequal-lengths", "repeated"])
    def test_bad_strings(self, strings, error):
        with pytest.raises(error) as raised:
            PointSet(strings)
        assert type(raised.value) is error

    @pytest.mark.parametrize("strings, error", [
        (["01", "0a"], InvalidParameterError),
        (["01", "011"], DimensionMismatchError),
        (["01", "10", "01"], InvalidParameterError),
    ], ids=["not-0/1", "unequal-lengths", "repeated"])
    def test_bad_json_domain_and_support_keep_the_error_type(self, strings, error):
        bad = [lambda: class_from_json_dict({"kind": "table", "domain": strings, "tables": []}),
               lambda: distribution_from_json_dict(
                   {"kind": "finite", "support": strings, "probs": [1.0] + [0.0] * 2})]
        for build in bad:
            with pytest.raises(error) as raised:
                build()
            assert type(raised.value) is error

    def test_padding_bits_in_given_rows_are_refused(self):
        with pytest.raises(InvalidParameterError, match="bits beyond n"):
            PointSet.from_rows(np.array([[0b1000]], dtype=np.uint64), 3)
        with pytest.raises(DimensionMismatchError):
            PointSet.from_rows(np.zeros((2, 1), dtype=np.uint64), 65)

    def test_a_support_point_outside_the_domain_is_named(self):
        from gaplab.metric_cover import oracle_positions

        cls = all_functions_class(PointSet(["00", "01"]))
        # "010" packs to the same word as "01", but is a point of another n.
        for support, outside in ((["01", "11"], "11"), (["010", "001"], "010")):
            dist = FiniteSupportDistribution(PointSet(support), [0.5, 0.5])
            with pytest.raises(PointNotInDomainError, match=f"point '{outside}'"):
                oracle_positions(cls, dist)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_pack_unpack_roundtrip(bits):
    arr = np.array([bits], dtype=np.uint8)
    packed = pack_bit_rows(arr)
    assert np.array_equal(unpack_bit_rows(packed, len(bits)), arr)


def test_full_mask_words():
    assert full_mask_words(64)[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert full_mask_words(3)[0] == np.uint64(0b111)
    assert full_mask_words(65)[1] == np.uint64(1)


class TestEvalConcept:
    def test_projection_examples(self):
        c4 = ProjectionClass(4)
        x = Point.from_string("0010")
        assert eval_concept(c4, c4.concept(3), x) == 1
        assert eval_concept(c4, c4.concept(1), x) == 0

    def test_table_example(self):
        cls = all_functions_class(PointSet(["0", "1"]))
        mask = cls.table_from_string("10")
        cid = cls.concept(mask + 1)
        assert eval_concept(cls, cid, Point.from_string("0")) == 1
        assert eval_concept(cls, cid, Point.from_string("1")) == 0

    def test_dimension_mismatch_and_missing_point_are_distinct(self):
        c4 = ProjectionClass(4)
        with pytest.raises(DimensionMismatchError):
            eval_concept(c4, c4.concept(1), Point.from_string("001"))
        domain = enumerated_domain(2)
        cls = all_functions_class(domain)
        with pytest.raises(PointNotInDomainError):
            eval_concept(cls, cls.concept(1), Point.from_string("11"))

    @given(st.integers(2, 80), st.data())
    def test_projection_is_coordinate(self, n, data):
        i = data.draw(st.integers(1, n))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        x = Point.from_bits(bits)
        assert eval_concept(ProjectionClass(n), ProjectionClass(n).concept(i), x) == bits[i - 1]


class TestLabelRows:
    def test_values_match_each_concept(self):
        dom = enumerated_domain(4)
        words = dom.rows[[2, 0, 2, 3]]
        for cls in (ProjectionClass(2), TableClass(dom, [0, 5, 6, 9, 15])):
            got = label_rows(cls, words, 2)
            want = [[eval_concept(cls, i, x) for i in range(1, cls.num_concepts + 1)]
                    for x in row_points(words, 2)]
            assert got.tolist() == want

    def test_table_row_outside_the_domain_raises(self):
        dom = enumerated_domain(3)
        words = np.stack([dom.rows[1], Point.from_string("11").words])
        with pytest.raises(PointNotInDomainError, match="'11'"):
            label_rows(all_functions_class(dom), words, 2)

    def test_projection_dimension_must_match(self):
        with pytest.raises(DimensionMismatchError):
            label_rows(ProjectionClass(3), Point.from_string("01").words[None, :], 2)


class TestShattering:
    def test_construction_examples(self):
        pts = row_points(build_shattered_set(4), 4)
        assert [p.bits for p in pts] == ["0101", "0011"]
        pts2 = row_points(build_shattered_set(2), 2)
        assert [p.bits for p in pts2] == ["01"]
        assert len(build_shattered_set(8)) == 3

    def test_construction_requires_n_at_least_2(self):
        with pytest.raises(InvalidParameterError):
            build_shattered_set(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 16, 33, 64, 100, 255, 256, 512, 1024])
    def test_construction_is_shattered(self, n):
        assert is_shattered(ProjectionClass(n), row_points(build_shattered_set(n), n))

    def test_empty_set_vacuously_shattered(self):
        assert is_shattered(ProjectionClass(4), [])

    def test_zero_vector_not_shattered(self):
        assert not is_shattered(ProjectionClass(4), [Point.from_string("0000")])

    def test_too_many_points(self):
        cls = ProjectionClass(40)
        pts = [Point.from_string("0" * 40)] * 31
        with pytest.raises(InvalidParameterError):
            is_shattered(cls, pts)

    @given(st.integers(2, 64), st.data())
    @settings(max_examples=40)
    def test_monotone_under_subsets(self, n, data):
        pts = row_points(build_shattered_set(n), n)
        keep = data.draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
        subset = [p for p, k in zip(pts, keep) if k]
        assert is_shattered(ProjectionClass(n), subset)


class TestVCDimension:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_exact_on_small_full_universe(self, n):
        assert vc_dimension_bruteforce(ProjectionClass(n), full_hypercube(n)) == n.bit_length() - 1

    def test_all_functions_shatters_whole_domain(self):
        cls = all_functions_class(enumerated_domain(5))
        assert vc_dimension_bruteforce(cls) == 5

    def test_empty_universe(self):
        with pytest.raises(InvalidParameterError):
            vc_dimension_bruteforce(ProjectionClass(4), [])

    def test_d_max_caps_result(self):
        cls = all_functions_class(enumerated_domain(5))
        assert vc_dimension_bruteforce(cls, d_max=2) == 2

    def test_default_universe_contains_construction(self):
        # The shattered-set points are part of the default universe, so the
        # cardinality cap is attained without the full hypercube.
        assert vc_dimension_bruteforce(ProjectionClass(32)) == 5


class TestVcLimits:
    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_full_hypercube_search_is_packed_rows(self):
        # 2^20 one-word rows; a Point per row peaked near 473 MiB.
        found = []
        peak = self._peak(lambda: found.append(
            vc_dimension_bruteforce(ProjectionClass(20), full_hypercube(20))))
        assert found == [4]
        assert peak < 200 * 2**20

    def test_full_hypercube_labels_unpack_only_n_columns(self):
        # Unpacking all 64 bits of each word before slicing peaked near 130 MiB.
        found = []
        peak = self._peak(lambda: found.append(
            vc_dimension_bruteforce(ProjectionClass(20), full_hypercube(20))))
        assert found == [4]
        assert peak < 100 * 2**20
        labels = unpack_bit_rows(full_hypercube(20)[:8], 20)
        assert labels.shape == (8, 20) and labels.flags.owndata

    def test_oversized_default_universe_is_refused_before_it_is_drawn(self):
        # 85 rows of 3.5M bits pass the 2^28-cell cap; the draw alone is 1.67 GiB.
        def search():
            with pytest.raises(InvalidParameterError, match=r"\(85 x 3500000\)"):
                vc_dimension_bruteforce(ProjectionClass(3_500_000))

        assert self._peak(search) < 2**20

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 64, 65, 130])
    def test_default_universe_keeps_its_points_and_order(self, n):
        # The shattered points, then each point of one (64, n) uniform draw
        # not seen before.
        gen = np.random.Generator(np.random.PCG64(concepts._VC_UNIVERSE_SEED))
        want = row_points(build_shattered_set(n), n) if n >= 2 else []
        for p in row_points(pack_bit_rows(gen.random((64, n)) < 0.5), n):
            if p not in want:
                want.append(p)
        assert row_points(concepts._default_universe(ProjectionClass(n)), n) == want

    def test_a_universe_of_another_width_is_refused(self):
        with pytest.raises(DimensionMismatchError, match="universe rows must pack 65-bit"):
            vc_dimension_bruteforce(ProjectionClass(65), full_hypercube(6))


class TestTableClass:
    def test_all_functions_sizes(self):
        assert all_functions_class(enumerated_domain(2)).num_concepts == 4
        assert all_functions_class(enumerated_domain(3)).num_concepts == 8
        assert all_functions_class(PointSet([])).num_concepts == 1

    def test_domain_cap(self):
        with pytest.raises(InvalidParameterError):
            all_functions_class(enumerated_domain(21))

    def test_table_string_roundtrip(self):
        cls = all_functions_class(enumerated_domain(3))
        for s in ("000", "101", "110", "111"):
            assert cls.table_to_string(cls.table_from_string(s)) == s


def test_class_json_roundtrip():
    c = ProjectionClass(9)
    assert class_from_json_dict(c.to_json_dict()) == c
    t = TableClass(enumerated_domain(3), [0b101, 0b010])
    t2 = class_from_json_dict(t.to_json_dict())
    assert t2.domain == t.domain
    assert list(t2.tables) == list(t.tables)


@pytest.mark.parametrize("size, n", [(1, 1), (2, 1), (3, 2), (12, 4), (21, 5)])
def test_enumerated_domain_is_the_first_hypercube_rows(size, n):
    dom = enumerated_domain(size)
    assert (dom.n, len(dom)) == (n, size)
    assert np.array_equal(dom.rows, full_hypercube(n)[:size])
    assert dom.to_strings() == [format(v, f"0{n}b")[::-1] for v in range(size)]
