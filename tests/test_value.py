"""The frozen value records of knotcert._value, the classes built on it, and
the line primitives of the text readers."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import knotcert
from knotcert._value import Record, as_dict, data_lines, int_tokens, located_tokens, token_error
from knotcert.bounds import InequalityReport
from knotcert.certify import ConditionResult, CertificateReport, PipelineReport, QInfo
from knotcert.magnus import LongitudeSystem
from knotcert.seifert import SeifertMatrix
from knotcert.trivializer import FamilyCheck, LetterSetFamily
from knotcert.words import TaggedWord


class Point(Record):
    x: int
    y: int = 0
    label: str = "p"


class OtherPoint(Record):
    x: int
    y: int = 0
    label: str = "p"


class TestConstruction:
    def test_positional_keyword_default(self):
        assert Point(1, 2, "q") == Point(x=1, y=2, label="q") == Point(1, label="q", y=2)
        p = Point(5)
        assert (p.x, p.y, p.label) == (5, 0, "p")
        assert Point._fields == ("x", "y", "label")

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, "missing required argument 'x'"),
        ((), {"y": 1}, "missing required argument 'x'"),
        ((1,), {"z": 2}, "unexpected keyword argument 'z'"),
        ((1, 2, "a", 4), {}, "takes 3 positional arguments but 4 were given"),
        ((1,), {"x": 2}, "multiple values for argument 'x'"),
    ])
    def test_bad_arguments(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Point(*args, **kwargs)

    def test_frozen(self):
        p = Point(1)
        with pytest.raises(AttributeError):
            p.x = 2
        with pytest.raises(AttributeError):
            p.extra = 2
        with pytest.raises(AttributeError):
            del p.x
        assert p.x == 1

    def test_equality_and_hash(self):
        assert Point(1, 2) == Point(1, 2) and hash(Point(1, 2)) == hash(Point(1, 2))
        assert Point(1, 2) != Point(2, 1)
        assert Point(1, 2) != OtherPoint(1, 2)
        assert Point(1, 2).__eq__(OtherPoint(1, 2)) is NotImplemented
        assert Point(1, 2) != (1, 2, "p")
        assert len({Point(1), Point(1), Point(2)}) == 2

    def test_repr(self):
        assert repr(Point(1, label="a")) == "Point(x=1, y=0, label='a')"
        assert repr(QInfo(2, 3, 4)) == "QInfo(k=2, q=3, factor_count=4)"
        assert repr(FamilyCheck(True, 7)) == (
            "FamilyCheck(ok=True, checked=7, failing_subfamily=None, failing_word=None)")

    def test_as_dict_nesting(self):
        cond = ConditionResult("m", "pass", "a1")
        report = CertificateReport("elliptic", 2, "valid", (cond,), {"per": {"a1": [1, 2]}})
        out = report.to_dict()
        assert out == {
            "kind": "elliptic", "n": 2, "verdict": "valid",
            "conditions": ({"name": "m", "status": "pass", "curve": "a1", "detail": ""},),
            "quantities": {"per": {"a1": [1, 2]}},
            "missing_flags": (),
        }
        # containers are rebuilt, not shared with the report
        assert out["quantities"]["per"] is not report.quantities["per"]
        pipeline = PipelineReport(3, "valid", True, 2, "done")
        assert list(pipeline.to_dict()) == list(PipelineReport._fields)
        assert as_dict(Point(1)) == {"x": 1, "y": 0, "label": "p"}


class TestValidation:
    def test_tagged_word(self):
        with pytest.raises(ValueError, match="equal length"):
            TaggedWord((1, 2), (1,))

    def test_letter_set_family(self):
        with pytest.raises(ValueError, match="at least two sets"):
            LetterSetFamily((frozenset({0}),))
        with pytest.raises(ValueError, match="pairwise disjoint"):
            LetterSetFamily((frozenset({0, 1}), frozenset({1})))

    def test_longitude_system(self):
        system = LongitudeSystem(2, ((1, 2, -2), (2, 1, -1, -2)))
        assert system.longitudes == ((1,), ())
        assert system == LongitudeSystem(2, ((1,), ()))
        with pytest.raises(ValueError, match="one longitude per component"):
            LongitudeSystem(2, ((1,),))
        with pytest.raises(ValueError, match="generator 3 > 2"):
            LongitudeSystem(2, ((3,), ()))
        with pytest.raises(ValueError, match=">= 1"):
            LongitudeSystem(0, ())

    def test_seifert_matrix(self):
        m = SeifertMatrix(1, [[-1, 1], [0, -1]])
        assert m.rows == ((-1, 1), (0, -1))
        with pytest.raises(ValueError, match="determinant 1"):
            SeifertMatrix(1, ((1, 0), (0, 1)))
        with pytest.raises(ValueError, match="2x2"):
            SeifertMatrix(1, ((1,),))
        with pytest.raises(ValueError, match="genus"):
            SeifertMatrix(-1, ())

    def test_inequality_report_all_hold(self):
        args = (6, True, True, (), Fraction(1, 144))
        assert InequalityReport(*args).all_hold is True
        assert InequalityReport(6, True, False, ("v",), Fraction(1, 144)).all_hold is False
        with pytest.raises(TypeError):
            InequalityReport(*args, all_hold=True)


def test_only_bench_copied_classes_are_dataclasses():
    """Within knotcert only Curve and SurfaceCertificate are dataclasses.

    The benchmark copies those two with dataclasses.replace; every other
    value class is a Record, so importing knotcert builds no dataclass
    methods beyond theirs.
    """
    found = set()
    for info in pkgutil.iter_modules(knotcert.__path__):
        module = importlib.import_module(f"knotcert.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                if hasattr(obj, "__dataclass_fields__"):
                    found.add(name)
    assert found == {"Curve", "SurfaceCertificate"}


class TestLinePrimitives:
    @pytest.mark.parametrize("line, expected", [
        ("", []),
        (" \t ", []),
        ("g1 g1  g1", [(1, "g1"), (4, "g1"), (8, "g1")]),
        ("\t1 \u3000 22", [(2, "1"), (6, "22")]),
    ], ids=["empty", "blank", "repeated-token", "tab-and-wide-space"])
    def test_located_tokens(self, line, expected):
        # a tab or any other whitespace character is one column
        assert located_tokens(line) == expected

    def test_data_lines(self):
        text = "# head\n1 2 # tail\n\n  # indented comment\n3"
        assert data_lines(text) == [(2, "1 2 "), (3, ""), (5, "3")]

    @pytest.mark.parametrize("body, index, message", [
        ("a  bb", 1, "line 7, col 4: stray token 'bb'"),
        ("a  bb ", 2, "line 7, col 6: stray token ''"),
        ("   ", 0, "line 7, col 1: stray token ''"),
    ], ids=["token", "past-last", "blank"])
    def test_token_error(self, body, index, message):
        error = token_error(7, body, index, "stray token {tok!r}")
        assert isinstance(error, ValueError) and str(error) == message

    def test_int_tokens(self):
        assert int_tokens(1, " 3 -1\t+2 ", "bad {tok!r}") == [3, -1, 2]
        with pytest.raises(ValueError, match="^line 4, col 6: bad 'x1'$"):
            int_tokens(4, "1 -2 x1 x2", "bad {tok!r}")
