"""Object actions and operations (Definitions 1 and 4).

An *object action* is either an invocation ``(t, inv o.f(n))`` or a
response ``(t, res o.f ▷ n)``.  An *operation* ``(t, f(n) ▷ n')`` pairs an
invocation with its matching response.

Arguments and results are kept as tuples so that multi-argument methods
and compound results (e.g. the exchanger's ``(bool, int)``) are uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Tuple, Union


def _as_tuple(value: Any) -> Tuple[Any, ...]:
    """Normalize arguments/results to a tuple."""
    if isinstance(value, tuple):
        return value
    return (value,)


#: Types whose instances compare equal only to instances of the same
#: type with the same content, so a value of one of them is its own key.
_EXACT_TYPES = frozenset({str, int, bytes, type(None)})


def typed_key(value: Any) -> Hashable:
    """A content key equal only for values of identical type and content.

    ``1 == True == 1.0`` (and they hash alike), so a plain tuple of
    values would conflate histories a spec can tell apart, and whose
    fingerprints differ.  Builtin containers are walked; floats are keyed
    by their exact bits (``-0.0`` is not ``0.0``); any other value is
    paired with its type.  The key is built eagerly but hashed only by
    the caller: an unhashable leaf (a list) raises ``TypeError`` there.
    """
    kind = type(value)
    if kind in _EXACT_TYPES:
        return value
    if kind is tuple:
        # Inline the exact-type leaves: this runs for every action of
        # every checked run.
        return (
            tuple,
            *[
                item if type(item) in _EXACT_TYPES else typed_key(item)
                for item in value
            ],
        )
    if kind is float:
        return (float, value.hex())
    if kind is frozenset:
        return (frozenset, frozenset(typed_key(item) for item in value))
    if kind is Invocation or kind is Response or kind is Operation:
        if kind is Operation:
            payload = (value.args, value.value)
        else:
            payload = value.args if kind is Invocation else value.value
        names = (value.tid, value.oid, value.method)
        if type(names[0]) is str and type(names[1]) is str and type(names[2]) is str:
            return (kind, *names, typed_key(payload))
        return (kind, typed_key(names), typed_key(payload))
    return (kind, value)


@dataclass(frozen=True, order=True)
class Invocation:
    """``(t, inv o.f(args))`` — thread ``t`` starts method ``f`` on ``o``."""

    tid: str
    oid: str
    method: str
    args: Tuple[Any, ...] = ()

    @property
    def is_invocation(self) -> bool:
        return True

    @property
    def is_response(self) -> bool:
        return False

    def __str__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"({self.tid}, inv {self.oid}.{self.method}({args}))"


@dataclass(frozen=True, order=True)
class Response:
    """``(t, res o.f ▷ value)`` — method ``f`` on ``o`` returns ``value``."""

    tid: str
    oid: str
    method: str
    value: Tuple[Any, ...] = ()

    @property
    def is_invocation(self) -> bool:
        return False

    @property
    def is_response(self) -> bool:
        return True

    def __str__(self) -> str:
        value = ", ".join(repr(v) for v in self.value)
        return f"({self.tid}, res {self.oid}.{self.method} ▷ ({value}))"


Action = Union[Invocation, Response]


@dataclass(frozen=True, order=True)
class Operation:
    """``(t, f(args) ▷ value)`` — a completed operation (Def. 4).

    Operations are the elements CA-elements are built from.  ``oid`` is
    carried along so an operation knows which object it belongs to, even
    though Def. 4 attaches the object to the CA-element; this makes view
    functions (§4) and projections straightforward.
    """

    tid: str
    oid: str
    method: str
    args: Tuple[Any, ...] = ()
    value: Tuple[Any, ...] = ()

    @staticmethod
    def of(
        tid: str,
        oid: str,
        method: str,
        args: Any = (),
        value: Any = (),
    ) -> "Operation":
        """Build an operation, normalizing args/value to tuples."""
        return Operation(tid, oid, method, _as_tuple(args), _as_tuple(value))

    @staticmethod
    def from_actions(inv: Invocation, res: Response) -> "Operation":
        """Pair an invocation with its matching response."""
        if (inv.tid, inv.oid, inv.method) != (res.tid, res.oid, res.method):
            raise ValueError(f"mismatched actions: {inv} / {res}")
        return Operation(inv.tid, inv.oid, inv.method, inv.args, res.value)

    @property
    def invocation(self) -> Invocation:
        return Invocation(self.tid, self.oid, self.method, self.args)

    @property
    def response(self) -> Response:
        return Response(self.tid, self.oid, self.method, self.value)

    def __str__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        value = ", ".join(repr(v) for v in self.value)
        return f"({self.tid}, {self.oid}.{self.method}({args}) ▷ ({value}))"
