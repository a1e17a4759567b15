"""Scenario files: a YAML tree describing a state, observables, and tasks.

Schema (see the shipped files under ``skewbounds/scenarios/`` for normative
instances):

    metric: "wy" | "wyd:<alpha>" | "sld"
    theta: <float>                  # optional default for the placeholder
    state:
      bloch: [rx, ry, rz]           # qubit only, |r| <= 1
      # or  pure: [[re, im], ...]   # normalized amplitude vector
      # or  density: [[[re, im], ...], ...]
    observables:
      <name>: [[[re, im], ...], ...]
    tasks:
      - product: {A: <name>, B: <name>}
      - chain:   {A: <name>, B: <name>}
      - sum:     {observables: [<name>, ...]}
      - sweep:   {param: theta, range: [lo, hi], steps: <int>}

Scalars inside ``state`` may be expression strings in the placeholder
``theta`` (e.g. "sqrt(3)/2*cos(theta)"); angles are radians.  Observable
entries are numeric [re, im] pairs.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ParseError, ValidationError
from .linalg import DensityMatrix, as_observable
from .metrics import MetricSpec, parse_metric

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "abs": abs,
}
# float is for the compiled form below; expressions cannot name it
_EXPR_GLOBALS = {"__builtins__": {}, "pi": math.pi, "float": float, **_FUNCTIONS}
_EXPR_NAMES = {"theta", "pi", *_FUNCTIONS}
_EXPR_NODES = (
    ast.Expression,
    ast.Constant,
    ast.Name,
    ast.Load,
    ast.Call,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
)


def _check_node(node: ast.AST, text: str) -> None:
    """Raise ValidationError unless the node is on the expression whitelist."""
    if not isinstance(node, _EXPR_NODES):
        raise ValidationError(
            f"bad expression {text!r}: {type(node).__name__} is not allowed"
        )
    if isinstance(node, ast.Constant) and type(node.value) not in (int, float):
        raise ValidationError(f"bad expression {text!r}: {node.value!r} is not a number")
    if isinstance(node, ast.Name) and node.id not in _EXPR_NAMES:
        raise ValidationError(f"bad expression {text!r}: unknown name {node.id!r}")
    if isinstance(node, ast.Call) and not (
        isinstance(node.func, ast.Name)
        and node.func.id in _FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        raise ValidationError(
            f"bad expression {text!r}: only one-argument calls of "
            f"{', '.join(_FUNCTIONS)} are allowed"
        )


# Where generated nodes sit in the compiled code: the first column of line 1.
_AT = {"lineno": 1, "col_offset": 0}


def _column_code(expr: ast.expr) -> ast.Expression:
    """lambda thetas: [float(expr) for theta in thetas], built around the checked tree."""
    comprehension = ast.comprehension(
        ast.Name("theta", ast.Store(), **_AT), ast.Name("thetas", ast.Load(), **_AT), [], 0
    )
    element = ast.Call(ast.Name("float", ast.Load(), **_AT), [expr], [], **_AT)
    arguments = ast.arguments([], [ast.arg("thetas", **_AT)], None, [], [], None, [])
    return ast.Expression(
        ast.Lambda(arguments, ast.ListComp(element, [comprehension], **_AT), **_AT)
    )


# A sweep compiles each distinct string once rather than once per block of
# points.  The bound keeps the cache from growing for the life of the
# process; it is larger than the distinct strings of a typical batch of
# files, so a repeated batch does not miss.
@functools.lru_cache(maxsize=4096)
def _compile_expression(text: str):
    """Check an expression against the whitelist; return (column, uses_theta).

    Allowed: numbers, + - * / **, unary signs, the names theta and pi, and
    single-argument calls of sin cos tan sqrt exp abs.  Numbers become
    floats, so a power of integer literals cannot grow without bound.
    ``column(thetas)`` evaluates the expression at each value of a list.
    """
    try:
        tree = ast.parse(text, mode="eval")
        nodes = list(ast.walk(tree))
        for node in nodes:
            _check_node(node, text)
            if isinstance(node, ast.Constant):
                node.value = float(node.value)
        column = eval(compile(_column_code(tree.body), "<expression>", "eval"), _EXPR_GLOBALS)
    except SyntaxError as exc:
        raise ValidationError(f"bad expression {text!r}: {exc.msg}") from exc
    except (RecursionError, MemoryError) as exc:
        # the parser's and the compiler's limits on nesting depth
        raise ValidationError(f"bad expression {text[:40]!r}...: nested too deeply") from exc
    except OverflowError as exc:
        # an integer literal beyond the float range
        raise ValidationError(f"bad expression {text[:40]!r}...: {exc}") from exc
    uses_theta = any(isinstance(n, ast.Name) and n.id == "theta" for n in nodes)
    return column, uses_theta


def _float(value, what: str) -> float:
    """float(value), refusing an integer beyond the float range as invalid."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{what}: {exc}") from exc


def eval_scalar(value, theta: float | None = None) -> float:
    """Evaluate a numeric literal or an expression string in theta."""
    if isinstance(value, (int, float)):
        return _float(value, "state entry")
    if isinstance(value, str):
        column, uses_theta = _compile_expression(value)
        if uses_theta and theta is None:
            raise ValidationError(
                f"expression {value!r} uses theta but no theta value is bound"
            )
        try:
            return column([theta])[0]
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise ValidationError(f"bad expression {value!r}: {exc}") from exc
    raise ValidationError(f"expected number or expression, got {value!r}")


def _column(value, thetas: list) -> list[float]:
    """A state entry at each placeholder value of the list.

    An expression runs once over the whole list.  If it fails anywhere, it
    is evaluated again point by point with ``eval_scalar``, which raises the
    error of the first failing point with ``row`` set to its index.
    """
    try:
        if isinstance(value, str):
            return _compile_expression(value)[0](thetas)
        return [eval_scalar(value)] * len(thetas)
    except (ArithmeticError, ValueError, TypeError, ValidationError):
        for t, theta in enumerate(thetas):
            try:
                eval_scalar(value, theta)
            except ValidationError as exc:
                exc.row = t
                raise
        raise


def _uses_theta(value) -> bool:
    if isinstance(value, str):
        return _compile_expression(value)[1]
    if isinstance(value, (list, tuple)):
        return any(_uses_theta(v) for v in value)
    return False


@dataclass(frozen=True)
class PairTask:
    kind: str  # "product" | "chain"
    a: str
    b: str

    @property
    def names(self) -> tuple[str, str]:
        return (self.a, self.b)


@dataclass(frozen=True)
class SumTask:
    names: tuple[str, ...]


@dataclass(frozen=True)
class SweepTask:
    param: str
    lo: float
    hi: float
    steps: int


Task = PairTask | SumTask | SweepTask


@dataclass(frozen=True)
class Scenario:
    state_kind: str  # "bloch" | "pure" | "density"
    state_spec: tuple  # raw entries: numbers / expression strings, nested
    observables: dict[str, np.ndarray] = field(repr=False)
    metric_label: str = "wy"
    metric: MetricSpec = None
    theta: float | None = None
    tasks: tuple[Task, ...] = ()
    # The state at the default placeholder value (theta, or 0.0 when unset)
    # as a stack of one, validated by parse_scenario_text when the scenario
    # has no sweep task; None for a sweep, which never evaluates that point,
    # and when the scenario was built otherwise.  dataclasses.replace keeps
    # it, so a copy with another state_spec or theta needs state=None.
    state: DensityMatrix | None = field(default=None, compare=False, repr=False)

    def uses_theta(self) -> bool:
        return _uses_theta(self.state_spec)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension of the state."""
        return 2 if self.state_kind == "bloch" else len(self.state_spec)

    def build_state(self, theta=None) -> DensityMatrix:
        """Bind the placeholder and validate the state.

        ``theta`` is one value, or a 1-D array of values for a stack of
        states, one per value.  Each entry of the spec is evaluated over all
        the values at once, and the states are validated as one stack.  An
        invalid point raises with ``row`` set to its index.
        """
        if theta is None:
            theta = self.theta
        single = np.ndim(theta) == 0
        thetas = [theta] if single else np.asarray(theta, float).tolist()
        spec = self.state_spec
        if self.state_kind == "pure":
            spec = [x for pair in spec for x in pair]
        elif self.state_kind == "density":
            spec = [x for row in spec for pair in row for x in pair]
        failures, columns = [], []
        for value in spec:
            try:
                columns.append(_column(value, thetas))
            except ValidationError as exc:
                failures.append(exc)
        if failures:
            # the first failing point, and at that point the first entry
            raise min(failures, key=lambda exc: exc.row)
        n = len(thetas)
        values = np.array(columns).reshape(len(columns), n).T
        if self.state_kind != "bloch":
            # (re, im) pairs, filled part by part: re + 1j*im would change the
            # sign of zeros and turn an infinite imaginary part into nan
            pairs = values.reshape(n, len(columns) // 2, 2)
            values = np.empty(pairs.shape[:2], complex)
            values.real = pairs[..., 0]
            values.imag = pairs[..., 1]
            if self.state_kind == "density":
                values = values.reshape(n, self.dim, self.dim)
        build = getattr(DensityMatrix, _BUILDERS[self.state_kind])
        return build(values[0] if single else values)


# the DensityMatrix constructor of each state kind, by name: looked up on the
# class at each call, so a wrapped constructor is the one called
_BUILDERS = {"bloch": "from_bloch", "pure": "from_pure", "density": "from_matrix"}


def _complex_entry(entry, where: str):
    if isinstance(entry, (int, float)):
        return (_float(entry, where), 0.0)
    if isinstance(entry, list) and len(entry) == 2:
        return entry
    raise ParseError(f"{where}: entry {entry!r} is not a number or [re, im] pair")


def _parse_observable(name: str, rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"observable {name!r}: expected a list of rows")
    mat = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(rows):
            raise ParseError(f"observable {name!r}: row {i} is not length {len(rows)}")
        where = f"observable {name!r} row {i}"
        try:
            mat.append([complex(*map(float, _complex_entry(e, where))) for e in row])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where}: entries must be numbers ({exc})") from exc
    try:
        return as_observable(mat)
    except Exception as exc:
        raise ValidationError(f"observable {name!r}: {exc}") from exc


def _parse_task(entry) -> Task:
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ParseError(f"task entry {entry!r} must be a single-key mapping")
    (kind, body), = entry.items()
    if kind in ("product", "chain"):
        try:
            return PairTask(kind=kind, a=body["A"], b=body["B"])
        except (TypeError, KeyError) as exc:
            raise ParseError(f"{kind} task needs A and B: {entry!r}") from exc
    if kind == "sum":
        names = body.get("observables") if isinstance(body, dict) else None
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ParseError(f"sum task needs an observables list of names: {entry!r}")
        names = tuple(names)
        if len(names) < 2:
            raise ParseError("sum task needs at least 2 observables")
        return SumTask(names=names)
    if kind == "sweep":
        try:
            lo, hi = body["range"]
            lo, hi = _float(lo, "sweep range"), _float(hi, "sweep range")
            steps = body["steps"]
        except (TypeError, KeyError, ValueError) as exc:
            raise ParseError(f"sweep task needs param/range/steps: {entry!r}") from exc
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"sweep range [{lo!r}, {hi!r}] is not finite")
        # bool is an int subclass; a float counts only when it is integral
        if isinstance(steps, bool) or not (
            isinstance(steps, int) or (isinstance(steps, float) and steps.is_integer())
        ):
            raise ValidationError(f"sweep steps must be an integer, got {steps!r}")
        task = SweepTask(param=body.get("param", "theta"), lo=lo, hi=hi, steps=int(steps))
        if task.param != "theta":
            raise ValidationError(
                f"sweep parameter {task.param!r} is not supported; only theta can be swept"
            )
        if task.steps < 1:
            raise ValidationError(f"sweep needs at least 1 step, got {task.steps}")
        return task
    raise ParseError(f"unknown task kind {kind!r}")


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list, not {type(value).__name__}")
    return value


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


# libyaml's parser where PyYAML was built with it, else the pure-Python one;
# both give the same events.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# The deepest valid scenario nests 5 collections: the document's mapping,
# then state, density, a row and an entry (or observables, a matrix, a row and
# an entry).  Deeper input is refused.
_MAX_NESTING = 32

# What a SafeLoader resolves plain scalars with and builds them by.  The
# table is the one Resolver.resolve reads: (tag, pattern) pairs by a plain
# scalar's first character, tried in order.  It has no wildcard (None) entry
# and no path resolvers are registered, so it alone decides the tag.  The
# constructor keeps no state between scalars.
_IMPLICIT = yaml.resolver.Resolver.yaml_implicit_resolvers
_CONSTRUCTOR = yaml.constructor.SafeConstructor()
# Plain decimals with a point, no underscore and no sexagesimal part: the
# float pattern is the first in the table to match them, and SafeConstructor
# builds them as float(value) does.
_DECIMAL = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?").fullmatch
_TAG = "tag:yaml.org,2002:"
_STR = _TAG + "str"
_SCALAR_TAGS = {_TAG + t for t in ("null", "bool", "int", "float", "binary", "timestamp")}
_SPECIAL_KEYS = {_TAG + "merge": "merge key", _TAG + "value": "value key"}
_COLLECTION_TAGS = {
    yaml.SequenceStartEvent: (None, "!", _TAG + "seq"),
    yaml.MappingStartEvent: (None, "!", _TAG + "map"),
}


def _scalar(event: yaml.ScalarEvent, source: str):
    """The value a SafeLoader builds from a scalar event.

    Strings and plain decimals are built here; every other tag goes through
    a ScalarNode and SafeConstructor, which raise their own errors.
    """
    tag, value = event.tag, event.value
    if tag is None or tag == "!":
        if not event.implicit[0]:
            return value  # quoted: a string
        if _DECIMAL(value):
            return float(value)
        for tag, pattern in _IMPLICIT.get(value[:1], ()):
            if pattern.match(value):
                break
        else:
            return value  # no pattern matches: a string
    if tag == _STR:
        return value
    if tag in _SPECIAL_KEYS:
        raise ParseError(
            f"{source}: YAML {_SPECIAL_KEYS[tag]} {value!r} is not supported "
            "in scenario files"
        )
    node = yaml.ScalarNode(tag, value, event.start_mark, event.end_mark)
    # an unknown tag gets SafeConstructor's own error
    construct = _CONSTRUCTOR.yaml_constructors[tag if tag in _SCALAR_TAGS else None]
    try:
        return construct(_CONSTRUCTOR, node)
    except (ValueError, AttributeError, KeyError) as exc:
        short = tag.replace(_TAG, "!!")
        raise ParseError(f"{source}: {value!r} is not a valid {short} value") from exc


def _load(text: str, source: str):
    """The document of a YAML text as yaml.SafeLoader builds it, from one walk over its events.

    The walk pulls the parser's events one at a time and keeps the open
    collections on a list, so it needs no recursion.  It raises ParseError
    on input nested more than _MAX_NESTING collections deep; on aliases,
    since one alias can make a document recursive and a chain of them can
    nest it or multiply its size without bound, and tasks name observables
    directly; on merge and value keys; on collection tags other than !!seq
    and !!map; on unhashable keys; and on a second document.  An empty
    stream gives None.
    """
    # the items of each open collection, innermost last, under the list of
    # documents; a mapping's items alternate key and value
    stack = [[]]
    mappings = []
    loader = _Loader(text)
    try:
        get_event = loader.get_event
        while True:
            event = get_event()
            kind = type(event)
            if kind is yaml.ScalarEvent:
                stack[-1].append(_scalar(event, source))
            elif kind is yaml.SequenceStartEvent or kind is yaml.MappingStartEvent:
                if event.tag not in _COLLECTION_TAGS[kind]:
                    tag = event.tag.replace(_TAG, "!!")
                    raise ParseError(f"{source}: tag {tag} is not supported in scenario files")
                if len(stack) > _MAX_NESTING:
                    raise ParseError(f"{source}: nested more than {_MAX_NESTING} deep")
                stack.append([])
                mappings.append(kind is yaml.MappingStartEvent)
            elif kind is yaml.SequenceEndEvent or kind is yaml.MappingEndEvent:
                items = stack.pop()
                if mappings.pop():
                    try:
                        items = dict(zip(items[::2], items[1::2]))
                    except TypeError as exc:
                        raise ParseError(f"{source}: unhashable mapping key ({exc})") from exc
                stack[-1].append(items)
            elif kind is yaml.AliasEvent:
                raise ParseError(
                    f"{source}: alias *{event.anchor} is not supported in scenario files"
                )
            elif kind is yaml.DocumentStartEvent and stack[0]:
                raise ParseError(f"{source}: expected a single document, found a second one")
            elif kind is yaml.StreamEndEvent:
                break
    finally:
        loader.dispose()
    return stack[0][0] if stack[0] else None


def parse_scenario_text(text: str, source: str = "<string>") -> Scenario:
    try:
        doc = _load(text, source)
    except yaml.YAMLError as exc:
        raise ParseError(f"{source}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be a mapping")

    try:
        state = doc["state"]
        obs_raw = doc["observables"]
        tasks_raw = doc.get("tasks", [])
    except KeyError as exc:
        raise ParseError(f"{source}: missing section {exc}") from exc

    if not isinstance(state, dict) or len(state) != 1:
        raise ParseError(f"{source}: state must have exactly one of bloch/pure/density")
    (state_kind, state_spec), = state.items()
    if state_kind not in ("bloch", "pure", "density"):
        raise ParseError(f"{source}: unknown state kind {state_kind!r}")
    _list(state_spec, f"{source}: state {state_kind}")
    if state_kind == "pure":
        state_spec = [
            _complex_entry(e, f"{source}: pure amplitude {i}")
            for i, e in enumerate(state_spec)
        ]
    elif state_kind == "density":
        rows = [_list(row, f"{source}: density row {i}") for i, row in enumerate(state_spec)]
        if any(len(row) != len(rows) for row in rows):
            raise ParseError(f"{source}: density rows must all have length {len(rows)}")
        state_spec = [
            [_complex_entry(e, f"{source}: density row {i}") for e in row]
            for i, row in enumerate(rows)
        ]

    metric_label = str(doc.get("metric", "wy"))
    metric = parse_metric(metric_label)
    theta = doc.get("theta")
    if theta is not None:
        try:
            theta = _float(theta, f"{source}: theta")
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{source}: theta {theta!r} is not a number") from exc
        if not math.isfinite(theta):
            raise ValidationError(f"{source}: theta {theta!r} is not finite")

    if not isinstance(obs_raw, dict):
        raise ParseError(f"{source}: observables must be a mapping of names to matrices")
    observables = {
        str(name): _parse_observable(str(name), rows)
        for name, rows in obs_raw.items()
    }
    tasks = tuple(_parse_task(t) for t in _list(tasks_raw, f"{source}: tasks"))
    for t in tasks:
        for name in getattr(t, "names", ()):
            if not isinstance(name, str) or name not in observables:
                raise ParseError(f"{source}: task references unknown observable {name!r}")

    scenario = Scenario(
        state_kind=state_kind,
        state_spec=_freeze(state_spec),
        observables=observables,
        metric_label=metric_label,
        metric=metric,
        theta=theta,
        tasks=tasks,
    )
    if any(isinstance(t, SweepTask) for t in tasks):
        return scenario  # a sweep builds and validates the states of its own grid
    # validate the state now, at the default placeholder binding, and keep it
    default = np.array([theta if theta is not None else 0.0])
    return dataclasses.replace(scenario, state=scenario.build_state(default))


def parse_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_scenario_text(text, source=str(path))

