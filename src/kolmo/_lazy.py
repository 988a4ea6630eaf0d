"""numpy imported where kolmo first needs it, not when kolmo is imported."""


class NumpyOnFirstUse:
    """What a module binds to ``np`` in place of ``import numpy as np``.

    ``np = NumpyOnFirstUse(globals())`` leaves numpy (about 0.1 s of a cold
    start) unimported until the module first looks up ``np.<name>``.  That
    lookup imports numpy and rebinds the module's global ``np`` to the numpy
    module itself, rather than forwarding each lookup: every later ``np.<name>``,
    in the hot loops too, is then the plain global lookup a top-level import
    gives, and the stand-in costs one call per module, once.
    """

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
