"""Attribute model: categories, data types, bags."""

import pytest

from repro.common.errors import PolicyError
from repro.xacml.attributes import AttributeId, Bag, Category, DataType


class TestCategory:
    def test_short_names_expand(self):
        assert Category.expand("subject") == Category.SUBJECT
        assert Category.expand("resource") == Category.RESOURCE
        assert Category.expand("action") == Category.ACTION
        assert Category.expand("environment") == Category.ENVIRONMENT

    def test_full_urns_pass_through(self):
        assert Category.expand(Category.SUBJECT) == Category.SUBJECT

    def test_unknown_category_rejected(self):
        with pytest.raises(PolicyError):
            Category.expand("banana")

    def test_shorten_round_trips(self):
        for short in ("subject", "resource", "action", "environment"):
            assert Category.shorten(Category.expand(short)) == short


class TestAttributeId:
    def test_normalises_category(self):
        attr = AttributeId("subject", "role")
        assert attr.category == Category.SUBJECT


class TestDataType:
    def test_check_accepts_matching(self):
        assert DataType.check(DataType.STRING, "x") == "x"
        assert DataType.check(DataType.INTEGER, 5) == 5
        assert DataType.check(DataType.BOOLEAN, True) is True

    def test_int_widens_to_double(self):
        assert DataType.check(DataType.DOUBLE, 5) == 5.0
        assert isinstance(DataType.check(DataType.DOUBLE, 5), float)

    def test_bool_is_not_integer(self):
        with pytest.raises(PolicyError):
            DataType.check(DataType.INTEGER, True)

    def test_mismatch_rejected(self):
        with pytest.raises(PolicyError):
            DataType.check(DataType.STRING, 5)

    def test_unknown_type_rejected(self):
        with pytest.raises(PolicyError):
            DataType.check("complex", 1j)

    def test_infer(self):
        assert DataType.infer("x") == DataType.STRING
        assert DataType.infer(5) == DataType.INTEGER
        assert DataType.infer(5.0) == DataType.DOUBLE
        assert DataType.infer(True) == DataType.BOOLEAN

    def test_infer_rejects_unknown(self):
        with pytest.raises(PolicyError):
            DataType.infer([1])


def strings(*values):
    return Bag(DataType.STRING, values)


class TestBag:
    def test_empty_bag(self):
        assert len(Bag(DataType.STRING)) == 0
        assert list(Bag(DataType.STRING)) == []

    def test_double_bag_widens_integers(self):
        bag = Bag(DataType.DOUBLE, [1, 2.5])
        assert bag.values == [1.0, 2.5]
        assert all(isinstance(value, float) for value in bag)

    def test_contains(self):
        assert "a" in strings("a", "b")
        assert "z" not in strings("a", "b")

    def test_equality_ignores_order(self):
        assert strings("a", "b") == strings("b", "a")

    def test_equality_respects_multiplicity(self):
        assert strings("a", "a") != strings("a")

    def test_equality_respects_type(self):
        assert Bag(DataType.INTEGER, [1]) != Bag(DataType.DOUBLE, [1.0])

    def test_one_and_only_singleton(self):
        assert strings("only").one_and_only() == "only"

    def test_one_and_only_rejects_multiple(self):
        with pytest.raises(PolicyError):
            strings("a", "b").one_and_only()

    def test_one_and_only_rejects_empty(self):
        with pytest.raises(PolicyError):
            strings().one_and_only()

    def test_mixed_types_rejected(self):
        with pytest.raises(PolicyError):
            Bag(DataType.STRING, ["a", 5])
