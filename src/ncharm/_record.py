"""Frozen record classes, without the start-up cost of `dataclasses`.

`@record` gives a class whose body annotates its fields an `__init__` over
them in annotation order (a class-level value is the default) that then
calls `__post_init__` if the class has one, frozen attributes, the
dataclass repr and `__match_args__`; `eq=False` keeps identity equality
instead of comparing and hashing the field tuple within one class.  The
methods are closures, not generated source, and instances keep a
`__dict__`, so `cached_property`, `copy` and `pickle` work on them.
"""

from __future__ import annotations


def record(cls=None, *, eq: bool = True):
    """Class decorator, used as `@record` or `@record(eq=False)`."""
    if cls is None:
        return lambda c: record(c, eq=eq)
    name = cls.__name__
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        state = self.__dict__
        state.update(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in state:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            state[key] = value
        for f in fields[len(args):]:
            if f not in state:
                if f not in defaults:
                    raise TypeError(f"{name}() missing required argument {f!r}")
                state[f] = defaults[f]
        # Looked up per call, so a method patched onto the class takes effect.
        post_init = getattr(type(self), "__post_init__", None)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def values(self):
        return tuple(getattr(self, f) for f in fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    cls.__init__, cls.__repr__ = __init__, __repr__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    if eq:
        cls.__eq__, cls.__hash__ = __eq__, __hash__
    cls.__match_args__ = fields
    return cls
