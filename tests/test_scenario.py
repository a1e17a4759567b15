"""Scenario parsing, validation, expression handling, and round-tripping."""

import importlib.resources
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import skewbounds.scenario
from conftest import write_scenario
from skewbounds.errors import ParseError, ValidationError
from skewbounds.scenario import (
    PairTask,
    Scenario,
    SumTask,
    SweepTask,
    eval_scalar,
    parse_scenario_text,
)

ROOT = Path(__file__).resolve().parent.parent
COMMITTED_YAML = sorted(
    [
        *(ROOT / "src" / "skewbounds" / "scenarios").glob("*.yaml"),
        *(ROOT / "tests" / "data").glob("*.yaml"),
        *(ROOT / "tests" / "golden").glob("*.yaml"),
    ]
)
LOADERS = [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)]

MINIMAL = """
metric: "wy"
state:
  bloch: [0.5, 0.0, 0.0]
observables:
  A:
    - [[0.0, 0.0], [1.0, 0.0]]
    - [[1.0, 0.0], [0.0, 0.0]]
tasks:
  - chain: {A: A, B: A}
"""


def shipped_example(n: int) -> str:
    ref = importlib.resources.files("skewbounds").joinpath(
        "scenarios", f"example{n}.yaml"
    )
    return ref.read_text(encoding="utf-8")


class TestEvalScalar:
    def test_literals(self):
        assert eval_scalar(3) == 3.0
        assert eval_scalar(2.5) == 2.5

    def test_expressions(self):
        assert eval_scalar("sqrt(3)/2*cos(theta)", 0.0) == pytest.approx(
            np.sqrt(3) / 2
        )
        assert eval_scalar("pi/4") == pytest.approx(np.pi / 4)

    def test_unbound_theta(self):
        with pytest.raises(ValidationError):
            eval_scalar("cos(theta)")

    def test_bad_expression(self):
        with pytest.raises(ValidationError):
            eval_scalar("import os", 0.0)
        with pytest.raises(ValidationError):
            eval_scalar("__builtins__", 0.0)
        with pytest.raises(ValidationError):
            eval_scalar([1, 2])

    @pytest.mark.parametrize(
        "text",
        [
            "0.0*().__class__.__base__.__subclasses__().__len__()",
            "(lambda: 1)()",
            "[1][0]",
            "sin(theta, 2)",
            "cos(x=theta)",
            "phi",
            "'1'",
            "9**9**9",
        ],
    )
    def test_outside_whitelist(self, text):
        with pytest.raises(ValidationError):
            eval_scalar(text, 0.0)

    def test_whitelist_covers_the_grammar(self):
        got = eval_scalar("-(2**-1) + +abs(-pi) * exp(0) / tan(pi/4) - sin(theta)", 0.5)
        assert got == pytest.approx(-0.5 + np.pi - np.sin(0.5))

    def test_compiled_expressions_are_bounded(self):
        # more distinct strings than the cache holds: it stops at its bound,
        # and an evicted string compiles again to the same value
        cache = skewbounds.scenario._compile_expression
        bound = cache.cache_info().maxsize
        texts = [f"{i}*theta + 0.5" for i in range(bound + 100)]
        values = [eval_scalar(text, 0.25) for text in texts]
        assert cache.cache_info().currsize == bound
        assert eval_scalar(texts[0], 0.25) == values[0] == 0.5


class TestParse:
    def test_minimal(self):
        s = parse_scenario_text(MINIMAL)
        assert s.state_kind == "bloch"
        assert s.metric.kind == "wy"
        assert list(s.observables) == ["A"]
        assert s.tasks == (PairTask(kind="chain", a="A", b="A"),)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shipped_examples_parse(self, n):
        s = parse_scenario_text(shipped_example(n), source=f"example{n}")
        rho = s.build_state(0.5 if s.theta is None else s.theta)
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12

    def test_example_tasks(self):
        s1 = parse_scenario_text(shipped_example(1))
        kinds = [type(t) for t in s1.tasks]
        assert kinds == [PairTask, SweepTask]
        s3 = parse_scenario_text(shipped_example(3))
        assert isinstance(s3.tasks[0], SumTask)
        assert s3.tasks[0].names == ("A", "B", "C")

    def test_bloch_outside_ball(self):
        bad = MINIMAL.replace("[0.5, 0.0, 0.0]", "[1.5, 0.0, 0.0]")
        with pytest.raises(ValidationError):
            parse_scenario_text(bad)

    def test_unnormalized_pure_state(self):
        bad = MINIMAL.replace("bloch: [0.5, 0.0, 0.0]", "pure: [1.0, 0.0, 1.0]")
        with pytest.raises(ValidationError):
            parse_scenario_text(bad)

    def test_non_hermitian_observable(self):
        bad = MINIMAL.replace("[[1.0, 0.0], [0.0, 0.0]]", "[[2.0, 0.0], [0.0, 0.0]]")
        with pytest.raises(ValidationError):
            parse_scenario_text(bad)

    def test_bad_metric(self):
        with pytest.raises(ValidationError):
            parse_scenario_text(MINIMAL.replace('"wy"', '"fisher"'))

    @pytest.mark.parametrize("theta", [".nan", ".inf", "-.inf"])
    def test_non_finite_theta(self, theta):
        with pytest.raises(ValidationError, match="is not finite"):
            parse_scenario_text(f"theta: {theta}\n" + MINIMAL)

    @pytest.mark.parametrize(
        "names",
        ["AB", "{A: 1, B: 2}", "[A, 1]", "[A, [B]]"],
        ids=["string", "mapping", "number", "list"],
    )
    def test_sum_names_must_be_a_list_of_strings(self, names):
        text = MINIMAL.replace("- chain: {A: A, B: A}", f"- sum: {{observables: {names}}}")
        text = text.replace(
            "observables:\n  A:", "observables:\n  B: [[1.0, 0.0], [0.0, -1.0]]\n  A:"
        )
        with pytest.raises(ParseError, match="observables list of names"):
            parse_scenario_text(text)

    def test_unknown_observable_reference(self):
        bad = MINIMAL.replace("{A: A, B: A}", "{A: A, B: Z}")
        with pytest.raises(ParseError):
            parse_scenario_text(bad)

    def test_missing_sections(self):
        with pytest.raises(ParseError):
            parse_scenario_text("metric: wy\n")
        with pytest.raises(ParseError):
            parse_scenario_text("- just\n- a list\n")

    def test_malformed_yaml(self):
        with pytest.raises(ParseError):
            parse_scenario_text("state: [unclosed\n")

    def test_uses_theta(self):
        s = parse_scenario_text(shipped_example(1))
        assert s.uses_theta()
        assert not parse_scenario_text(MINIMAL).uses_theta()


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shipped_examples(self, n):
        s = parse_scenario_text(shipped_example(n))
        s2 = parse_scenario_text(write_scenario(s))
        assert s2.state_kind == s.state_kind
        assert s2.state_spec == s.state_spec
        assert s2.metric == s.metric
        assert s2.theta == s.theta
        assert s2.tasks == s.tasks
        assert set(s2.observables) == set(s.observables)
        for name in s.observables:
            assert np.array_equal(s2.observables[name], s.observables[name])


@st.composite
def scenarios(draw):
    """Scenarios as write_scenario sees them; the values need not be valid."""
    d = draw(st.integers(2, 4))
    real = st.floats(allow_nan=False, allow_infinity=False)
    scalar = st.one_of(real, st.text())
    kind = draw(st.sampled_from(["bloch", "pure", "density"]))
    pair = st.tuples(scalar, scalar)
    if kind == "bloch":
        spec = draw(st.tuples(scalar, scalar, scalar))
    elif kind == "pure":
        spec = tuple(draw(st.lists(pair, min_size=d, max_size=d)))
    else:
        row = st.lists(pair, min_size=d, max_size=d).map(tuple)
        spec = tuple(draw(st.lists(row, min_size=d, max_size=d)))
    names = draw(st.lists(st.text(min_size=1), min_size=2, max_size=3, unique=True))
    entries = st.lists(real, min_size=2 * d * d, max_size=2 * d * d)
    observables = {
        name: np.array(e[::2]).reshape(d, d) + 1j * np.array(e[1::2]).reshape(d, d)
        for name, e in ((name, draw(entries)) for name in names)
    }
    tasks = (
        PairTask(draw(st.sampled_from(["product", "chain"])), names[0], names[1]),
        SumTask(tuple(names)),
        SweepTask(draw(st.text()), draw(real), draw(real), draw(st.integers())),
    )
    theta = draw(st.one_of(st.none(), real))
    return Scenario(kind, spec, observables, draw(st.text()), None, theta, tasks)


class Plain(str):
    """A scalar written unquoted, in a spelling safe_dump never writes itself."""


class Dumper(yaml.SafeDumper):
    pass


Dumper.add_representer(
    Plain,
    lambda dumper, text: dumper.represent_scalar(
        yaml.resolver.Resolver().resolve(yaml.ScalarNode, str(text), (True, False)), str(text)
    ),
)

# spellings a SafeLoader reads as ints, floats, bools, nulls or timestamps
PLAIN = ["1_000.5", "1:30", "-1:30.5", "0x1F", "0o17", "0b101", "+.inf", ".NaN", "1e3",
         "Yes", "off", "~", "Null", "2001-12-14", "2001-12-14t21:59:43.10-05:00"]
SCALARS = st.one_of(
    st.integers(),
    st.floats(),  # including inf and nan
    st.booleans(),
    st.none(),
    st.datetimes(),
    st.dates(),
    st.text(),
    st.sampled_from(PLAIN).map(Plain),
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.one_of(st.text(), st.integers(), st.booleans()), children,
                        max_size=4),
    ),
    max_leaves=25,
)


def safe_loaded(text):
    return repr(yaml.load(text, Loader=yaml.SafeLoader))


def loaded(text):
    """repr of the scenario loader's document under each event parser (repr: nan == nan)."""
    docs = []
    for loader in LOADERS:
        saved = skewbounds.scenario._Loader
        skewbounds.scenario._Loader = loader
        try:
            docs.append(repr(skewbounds.scenario._load(text, "<test>")))
        finally:
            skewbounds.scenario._Loader = saved
    return docs


class TestLoader:
    def test_libyaml_loader_when_built(self):
        # a silent fall-back to the pure-Python parser would cost time on every file
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert skewbounds.scenario._Loader is expected

    @pytest.mark.parametrize("path", COMMITTED_YAML, ids=lambda p: p.name)
    def test_committed_files_load_alike(self, path):
        text = path.read_text(encoding="utf-8")
        assert loaded(text) == [safe_loaded(text)] * len(LOADERS)

    @given(scenarios())
    @settings(max_examples=100, deadline=None)
    def test_written_scenarios_load_alike(self, s):
        text = write_scenario(s)
        assert loaded(text) == [safe_loaded(text)] * len(LOADERS)

    @given(DOCUMENTS, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_documents_load_alike(self, doc, flow):
        text = yaml.dump(doc, Dumper=Dumper, default_flow_style=flow)
        assert loaded(text) == [safe_loaded(text)] * len(LOADERS)

    def test_empty_stream(self):
        assert loaded("# nothing\n") == ["None"] * len(LOADERS)

    # plain decimals _load builds with float() itself; every other scalar
    # goes through the resolver's patterns and, unless it is a string,
    # SafeConstructor
    DECIMALS = ["1.5", "-0.0", "+1.", "5.", "1.5E+3", "-1.5e-07", "1.5e+300"]
    OTHER_NUMBERS = ["1e5", "1.5e3", "1_0.5", "1:30.5", ".inf", "-.inf", ".NaN", ".5",
                     "0x10", "017", "1:30"]
    OTHER_SCALARS = ["yes", "No", "~", "null", "", "2001-12-14", "'1.5'", '"1.5"']

    @pytest.mark.parametrize("value", DECIMALS + OTHER_NUMBERS + OTHER_SCALARS)
    def test_scalar_resolution(self, value):
        text = f"theta: {value}\n"
        assert loaded(text) == [safe_loaded(text)] * len(LOADERS)
        assert bool(skewbounds.scenario._DECIMAL(value)) == (value in self.DECIMALS)

    @given(st.from_regex(r"[-+]?[0-9]+\.[0-9]*([eE][-+][0-9]+)?", fullmatch=True))
    @settings(max_examples=200, deadline=None)
    def test_decimals_load_alike(self, value):
        text = f"- {value}\n"
        assert loaded(text) == [safe_loaded(text)] * len(LOADERS)

    def test_resolver_table_alone_decides(self):
        # _scalar reads the implicit table by first character only: no
        # wildcard patterns and no path resolvers may apply
        assert None not in skewbounds.scenario._IMPLICIT
        assert not yaml.SafeLoader.yaml_path_resolvers
        assert skewbounds.scenario._IMPLICIT is yaml.SafeLoader.yaml_implicit_resolvers


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
class TestNestingGuard:
    @staticmethod
    def nested(depth):
        # the document's mapping is the first of `depth` open collections
        return "state: " + "[" * (depth - 1) + "]" * (depth - 1) + "\n"

    def test_limit(self, monkeypatch, loader):
        monkeypatch.setattr(skewbounds.scenario, "_Loader", loader)
        with pytest.raises(ParseError, match="missing section"):
            parse_scenario_text(self.nested(32))
        # deeper input crashes libyaml's loader; test_cli runs it in a child
        for depth in (33, 600):
            with pytest.raises(ParseError, match="nested more than 32 deep"):
                parse_scenario_text(self.nested(depth))

    @pytest.mark.parametrize(
        "text",
        [
            # recursive: the alias names the list that holds it
            "state:\n  pure: &a [*a, [0.0, 0.0]]\nobservables: {}\n",
            "x: &x [1.0, 0.0]\nstate:\n  pure: [*x, [0.0, 0.0]]\nobservables: {}\n",
        ],
        ids=["recursive", "plain"],
    )
    def test_aliases_are_refused(self, monkeypatch, loader, text):
        monkeypatch.setattr(skewbounds.scenario, "_Loader", loader)
        with pytest.raises(ParseError, match="alias"):
            parse_scenario_text(text)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
class TestRefusals:
    """Input a SafeLoader reads but scenario files have no use for: a parse error."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("<<: {metric: wy}\n" + MINIMAL, "merge key '<<'"),
            ("metric: wy\n=: 1\n", "value key '='"),
            ("observables: !!set {A}\n", "tag !!set"),
            ("observables: !!omap [A: 1]\n", "tag !!omap"),
            ("observables: !!pairs [A: 1]\n", "tag !!pairs"),
            ("observables: !!map [1]\n", "tag !!map"),
            (MINIMAL + "---\n" + MINIMAL, "a second one"),
            (MINIMAL + "? [1, 2]\n: 3\n", "unhashable mapping key"),
            (MINIMAL + "{a: 1}: 3\n", "unhashable mapping key"),
        ],
        ids=["merge", "value", "set", "omap", "pairs", "map-on-list", "two-documents",
             "list-key", "mapping-key"],
    )
    def test_refused(self, monkeypatch, loader, text, message):
        monkeypatch.setattr(skewbounds.scenario, "_Loader", loader)
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_scenario_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # test_cli covers the explicitly tagged !!float, !!int, !!timestamp
            # and !!bool values
            ("theta: 2001-02-30\n", "'2001-02-30' is not a valid !!timestamp value"),
            ("theta: !!binary a\n", "failed to decode base64"),
            ("theta: !foo 1\n", "could not determine a constructor for the tag '!foo'"),
        ],
        ids=["implicit-date", "binary", "unknown"],
    )
    def test_bad_scalar(self, monkeypatch, loader, text, message):
        monkeypatch.setattr(skewbounds.scenario, "_Loader", loader)
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_scenario_text(text + MINIMAL)
