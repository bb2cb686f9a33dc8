"""An ndarray view that counts the matrix products it takes part in."""

import numpy as np


class CountingMatrix(np.ndarray):
    """View of a matrix that counts the products it takes part in; views of
    it (such as its transpose) share the counter."""

    @classmethod
    def wrap(cls, A, counter):
        view = A.view(cls)
        view.counter = counter
        return view

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.counter[0] += 1
        plain = [np.asarray(x) if isinstance(x, CountingMatrix) else x
                 for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)
