"""The value records: immutable named tuples that equal only their own type.

Every record of the paper's objects (the algebra kind, basis elements, the
pattern pair, its graphs and the reports) keeps the value semantics it had
as a frozen dataclass: equal fields give equal records with equal hashes, a
record never equals a plain tuple or a record of another type, and no field
can be assigned.
"""

from fractions import Fraction

import pytest

from structcon.algebra import (
    AlgebraElement,
    AlgebraKind,
    BasisElement,
    Cq,
    Family,
    SpanBasis,
    _Echelon,
    lie_closure,
    record,
    so,
)
from structcon.graphs import Color, ColoredMultigraph, Digraph, UndirectedGraph
from structcon.patterns import ControlPattern, DriftPattern, ZeroPatternPair
from structcon.verdict import ConditionEval, OracleReport, Report, Verdict


def b12():
    return AlgebraElement.build(so(3), [(BasisElement("B", 1, 2), Fraction(2))])


def drift():
    return DriftPattern(so(3), (b12(),))


def control():
    return ControlPattern(so(3), (BasisElement("B", 2, 3),))


def condition():
    return ConditionEval("union graph connected", True, "necessary condition over SO(n)")


def span():
    return lie_closure([b12(), AlgebraElement.build(so(3), [(BasisElement("B", 2, 3), 1)])])[0]


RECORDS = {
    "AlgebraKind": lambda: AlgebraKind(Family.SU, 4),
    "BasisElement": lambda: BasisElement("C", 1, 3),
    "Cq": lambda: Cq(Fraction(1, 2), Fraction(-3)),
    "SpanBasis": span,
    "DriftPattern": drift,
    "ControlPattern": control,
    "ZeroPatternPair": lambda: ZeroPatternPair(drift(), control()),
    "UndirectedGraph": lambda: UndirectedGraph(3, frozenset({(1, 2)})),
    "Digraph": lambda: Digraph(3, frozenset({(1, 1), (2, 3)})),
    "ColoredMultigraph": lambda: ColoredMultigraph(3, frozenset({(1, 2, Color.RED)})),
    "ConditionEval": condition,
    "OracleReport": lambda: OracleReport(2, (3, 3), 3, True, 0),
    "Report": lambda: Report(Verdict.EXACT_YES, (condition(),), OracleReport(1, (3,), 3, True, 0),
                             False, "Theorem 1"),
}


def field_names(rec):
    # `ech` takes no part in a SpanBasis's value
    return ("kind", "rows") if isinstance(rec, SpanBasis) else rec._fields


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_value_semantics(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)

    names = field_names(a)
    fields = tuple(getattr(a, name) for name in names)
    # the hash a frozen dataclass had: that of the tuple of compared fields
    assert hash(a) == hash(fields)
    assert not a == fields and a != fields
    assert not fields == a and fields != a
    other = record("Other", names)(*fields)
    assert not a == other and a != other
    assert not other == a and other != a

    with pytest.raises(AttributeError):
        setattr(a, names[0], getattr(b, names[0]))
    assert a == b


def test_records_of_equal_fields_and_different_types_differ():
    graphs = [UndirectedGraph(3, frozenset()), Digraph(3, frozenset()),
              ColoredMultigraph(3, frozenset())]
    for g in graphs:
        for h in graphs:
            assert (g == h) is (g is h) and (g != h) is (g is not h)


def test_span_basis_equality_ignores_its_echelon():
    basis = span()
    other = SpanBasis(basis.kind, basis.rows, _Echelon())
    assert other == basis and hash(other) == hash(basis)
    assert repr(other) == repr(basis) and "ech" not in repr(basis)
    # membership reduces against the echelon it was given
    assert basis.contains(basis.rows[0]) and not other.contains(basis.rows[0])

