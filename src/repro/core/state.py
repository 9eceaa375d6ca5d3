"""Declared SUL state: snapshots and restores built from per-class schemas.

A class whose objects a SUL snapshot covers declares
``__state__ = fields("a b", c=BYTES, d=nested(D))``, the fields a later
step can read with the kind a snapshot holds each as (plain names are
immutable values), and ``__shared__ = "config endpoint"``, the long-lived
rest (configuration, endpoints, codecs, memos, cumulative statistics).
Declarations add up along the class hierarchy.  A class without
``__state__`` (or setting it to ``None``) has no snapshot, nor has an
object while its ``_refuses_snapshot()`` is true, nor anything holding it
as state.  :func:`capture` and :func:`restore` are generated per class.
"""

from __future__ import annotations

import functools
from typing import Any, Callable


class Kind:
    """How a snapshot holds a field: templates of the expressions making the
    immutable value and a live one back, and of the restoring statement."""

    def __init__(self, capture: str = "{}", build: str = "{}", restore: str = "{} = {}") -> None:
        self._capture, self.build, self._restore = capture, build, restore

    def capture(self, expr: str, bind: Callable) -> str:
        return self._capture.format(expr)

    def items(self, expr: str, bind: Callable) -> list:  # what it adds to its owner's tuple
        return [self.capture(expr, bind)]

    def restore(self, target: str, value: str, prefix: str, bind: Callable, fresh: bool) -> list:
        """Statements restoring ``target``, in place or (``fresh``) anew."""
        return [self._restore.format(target, self.build.format(value))]


VALUE = Kind()
BYTES = Kind("bytes({})", "bytearray({})")
LIST = Kind("tuple({})", "list({})")
SET = Kind("tuple(sorted({}))", "set({})")
DICT = Kind("tuple({}.items())", "dict({})")
#: A :class:`~repro.netsim.SnapshotRandom`, restored in place.
RNG = Kind("{}.getstate()", restore="{}.setstate({})")


class nested(Kind):
    """A declared object of class ``cls`` (else any, never built), restored in place;
    with ``new(owner)`` it may be ``None`` and ``new`` builds one to fill."""

    def __init__(self, cls: type | None = None, new: Callable | None = None) -> None:
        self.cls, self.new = cls, new

    def refuses(self) -> bool:
        return self.cls is None or declared(self.cls).refuses

    def flat(self) -> bool:  # its items splice into its owner's tuple
        return self.new is None and not self.refuses()

    def capture(self, expr: str, bind: Callable) -> str:
        if self.cls is None:
            return f"{bind(capture)}({expr})"
        schema = declared(self.cls)
        if self.new is not None:
            return f"(None if (x := {expr}) is None else {bind(schema.capture)}(x))"
        if schema.refuses:
            return f"{bind(schema.capture)}({expr})"
        return f"({''.join(f'{item}, ' for item in self.items(expr, bind))})"

    def items(self, expr: str, bind: Callable) -> list:
        if not self.flat():
            return [self.capture(expr, bind)]
        state = declared(self.cls).state.items()
        return [item for name, kind in state for item in kind.items(f"{expr}.{name}", bind)]

    def element(self, bind: Callable) -> tuple[str, str]:  # a dict's restore and fill
        if not self.flat():
            raise TypeError("a dict holds declared objects of one class that never refuses")
        return bind(declared(self.cls).restore), bind(declared(self.cls).fill)

    def restore(self, target: str, value: str, prefix: str, bind: Callable, fresh: bool) -> list:
        if self.cls is None:
            return [f"{bind(restore)}({target}, {value})"]
        schema, owner, obj = declared(self.cls), target.rsplit(".", 1)[0], f"{prefix}o"
        if self.new is not None:  # ``fill`` a ``new`` shell where no object is live
            live = f"{bind(schema.restore)}({obj}, {value}) if ({obj} := {target}) is not None"
            return [f"{target} = None if {value} is None else {'' if fresh else live + ' else '}"
                    f"{bind(schema.fill)}({value}, {bind(self.new)}({owner}))"]
        if fresh:  # into the object a ``new`` shell may already hold
            name, value = target.rsplit(".", 1)[1], schema.pack(prefix) if self.flat() else value
            return [f"{target} = {bind(schema.fill)}({value}, getattr({owner}, {name!r}, None))"]
        if self.flat():
            return [f"{obj} = {target}", *schema.assign(bind, fresh, obj, prefix)]
        return [f"{obj} = {target}", *schema.body(bind, fresh, obj, value, prefix)]


class mapping(Kind):
    """A dict whose values have kind ``element``, held as an item tuple."""

    def __init__(self, element: Kind) -> None:
        self.element = element

    def capture(self, expr: str, bind: Callable) -> str:
        return f"tuple([(k, {self.element.capture('x', bind)}) for k, x in {expr}.items()])"

    def restore(self, target: str, value: str, prefix: str, bind: Callable, fresh: bool) -> list:
        if not isinstance(self.element, nested):
            return [f"{target} = {{k: {self.element.build.format('x')} for k, x in {value}}}"]
        function, fill = self.element.element(bind)
        if fresh:
            return [f"{target} = {{k: {fill}(x) for k, x in {value}}}"]
        element = f"{function}(y, x) if (y := {prefix}m.get(k)) is not None else {fill}(x)"
        return [f"{prefix}m = {target}", f"{target} = {{k: {element} for k, x in {value}}}"]


class fixed(mapping):
    """A dict with fixed keys (``keys``, else the live ones), held as a tuple of its values."""

    def __init__(self, element: Kind, keys: Any = None) -> None:
        self.element, self.keys = element, keys if keys is None else tuple(keys)

    def capture(self, expr: str, bind: Callable) -> str:
        if self.element is VALUE:
            return f"tuple({expr}.values())"
        return f"tuple([{self.element.capture('x', bind)} for x in {expr}.values()])"

    def restore(self, target: str, value: str, prefix: str, bind: Callable, fresh: bool) -> list:
        keys = target if self.keys is None else bind(self.keys)
        if isinstance(self.element, nested):
            function, fill = self.element.element(bind)
            if not fresh:
                return [f"for y, x in zip({target}.values(), {value}): {function}(y, x)"]
            value = f"[{fill}(x) for x in {value}]"
        elif self.element is not VALUE:
            value = f"[{self.element.build.format('x')} for x in {value}]"
        return [f"{target} = dict(zip({keys}, {value}))"]


def fields(values: str = "", **kinds: Kind) -> dict[str, Kind]:
    """A ``__state__``: the space-separated ``values`` and the ``kinds`` given."""
    return {**dict.fromkeys(values.split(), VALUE), **kinds}


class _Schema:
    def __init__(self, cls: type) -> None:
        self.cls, self.state, self.shared, has_state = cls, {}, set(), False
        for klass in reversed(cls.__mro__):
            own = vars(klass)
            if "__state__" in own:
                has_state = own["__state__"] is not None
            self.state.update(own.get("__state__") or {})
            self.shared.update(own.get("__shared__", "").split())
        self.predicate = hasattr(cls, "_refuses_snapshot")
        self.refusing = [isinstance(k, nested) and k.refuses() for k in self.state.values()]
        self.refuses = not has_state or self.predicate or any(self.refusing)
        self.capture = self._generate("capture(o)", self._capture) if has_state else lambda o: None
        self.restore = self._generate("restore(o, v)", lambda bind: self.body(bind, False))
        # ``fill(value, obj=None)`` puts the state anew into ``obj`` or a new object.
        self.fill = self._generate("fill(v, o=None)", lambda bind: [
            "if o is None: o = _cls.__new__(_cls)", *self.body(bind, True)])

    def _generate(self, header: str, lines: Callable) -> Callable:
        """Compile ``def {header}`` around ``lines(bind)``; ``bind`` names objects."""
        namespace: dict[str, Any] = {"_cls": self.cls}

        def bind(obj: Any) -> str:
            namespace[f"_b{len(namespace)}"] = obj
            return f"_b{len(namespace) - 1}"

        exec(f"def {header}:\n" + "\n".join(f"    {line}" for line in lines(bind)), namespace)
        return namespace[header[: header.index("(")]]

    def _capture(self, bind: Callable) -> list:
        lines, items = ["if o._refuses_snapshot(): return None"] * self.predicate, []
        for index, ((name, kind), refuses) in enumerate(zip(self.state.items(), self.refusing)):
            if refuses:
                lines += [f"_{index} = {kind.capture(f'o.{name}', bind)}",
                          f"if _{index} is None: return None"]
            items += [f"_{index}"] if refuses else kind.items(f"o.{name}", bind)
        return lines + [f"return ({''.join(f'{item}, ' for item in items)})"]

    def pack(self, prefix: str) -> str:
        """The tuple of the locals a restore unpacks (flat objects spliced)."""
        return "(" + "".join(
            declared(kind.cls).pack(f"{prefix}_{index}")[1:-1]
            if isinstance(kind, nested) and kind.flat() else f"{prefix}_{index}, "
            for index, kind in enumerate(self.state.values())) + ")"

    def body(self, bind: Callable, fresh: bool, obj: str = "o", value: str = "v",
             prefix: str = "") -> list:
        """Statements restoring ``value`` into the object ``obj``."""
        lines = [f"{self.pack(prefix)} = {value}", *self.assign(bind, fresh, obj, prefix)]
        return lines + ["return o"] * (obj == "o")

    def assign(self, bind: Callable, fresh: bool, obj: str, prefix: str) -> list:
        lines = []
        for index, (name, kind) in enumerate(self.state.items()):
            field = f"{prefix}_{index}"
            lines += kind.restore(f"{obj}.{name}", field, field, bind, fresh)
        return lines


#: A class's merged ``state`` (name -> kind) and ``shared``, and its functions;
#: bounded well above the few dozen classes that declare ``__state__``.
declared = functools.lru_cache(maxsize=256)(_Schema)


def capture(obj: Any) -> Any:
    """``obj``'s declared state as a hashable value, or ``None`` (refused)."""
    return declared(type(obj)).capture(obj)


def restore(obj: Any, value: Any) -> Any:
    """Write a :func:`capture` value back into ``obj``, and return ``obj``."""
    return declared(type(obj)).restore(obj, value)
