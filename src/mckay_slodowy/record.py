"""Record: the base of the package's immutable value types.

A subclass lists its fields as class annotations, in order; a class
attribute of the same name is that field's default, and a ``ClassVar``
annotation is not a field.  Each subclass gets

- a constructor taking the fields positionally or by keyword;
- equality only with instances of the exact same class, by the tuple of
  fields, and a hash of that tuple;
- the repr ``QualName(field=value, ...)``;
- no assignment or deletion of attributes (``AttributeError``).

That is what ``@dataclass(frozen=True)`` gives, without importing
``dataclasses`` (which pulls in ``inspect``) or compiling generated code for
each class; those two costs would be most of the package's cold import
time.  A subclass may override ``__eq__`` and ``__hash__``.
An instance's ``__dict__`` holds its fields, in order, and nothing else, so
a subclass keeps no other instance attribute (no ``cached_property``).
"""
from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own annotations, strings under `from __future__ import annotations`
        own = [
            name
            for name, annotation in cls.__annotations__.items()
            if not str(annotation).startswith(("ClassVar", "typing.ClassVar"))
        ]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        self.__dict__.update(zip(self._fields, args))

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, from positional and keyword arguments and the
        defaults."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        rest = fields[len(args):]
        if extra := kwargs.keys() - rest:
            raise TypeError(f"{name}() got unexpected or repeated arguments {sorted(extra)}")
        values = list(args)
        for field in rest:
            if field in kwargs:
                values.append(kwargs[field])
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        return tuple(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple(self.__dict__.values()) == tuple(other.__dict__.values())
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        body = ", ".join(f"{field}={value!r}" for field, value in self.__dict__.items())
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
