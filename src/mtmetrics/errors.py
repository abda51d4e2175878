class InputError(ValueError):
    """Bad user-supplied input: files, flags, presets, score tables.

    The CLI maps this to exit code 2; anything else escaping a command is
    an internal error (exit code 1).
    """


class _Checked:
    """Mixin for a NamedTuple subclass whose fields are checked: the
    constructor, ``_make`` and ``_replace`` (which calls ``_make``) all run
    the subclass's ``_check``, which raises ValueError on a bad field."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
