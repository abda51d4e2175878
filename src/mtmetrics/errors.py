class InputError(ValueError):
    """Bad user-supplied input: files, flags, presets, score tables.

    The CLI maps this to exit code 2; anything else escaping a command is
    an internal error (exit code 1).
    """


def _checked(cls):
    """Class decorator for a NamedTuple whose fields are checked: the
    constructor, ``_make`` and ``_replace`` (which calls ``_make``) all run
    the class's ``_check``, which raises ValueError on a bad field.
    ``typing.NamedTuple`` refuses both names in a class body."""
    build = cls.__new__

    def __new__(cls, *args, **kwargs):
        self = build(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


def _is_number(value) -> bool:
    """An int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
