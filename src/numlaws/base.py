"""Minimal scikit-learn-compatible estimator plumbing.

Estimators in this package follow the sklearn protocol (constructor
parameters stored verbatim, ``get_params``/``set_params``, fitted
attributes with a trailing underscore) without importing sklearn, which
keeps CLI start-up light.  ``sklearn.clone`` and pipeline tooling work
against this duck type.
"""

from __future__ import annotations

import inspect

from .errors import NotFittedError


class BaseEstimator:
    """get_params/set_params support driven by the __init__ signature."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return sorted(
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        )

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator, attribute):
    """Raise NotFittedError unless ``attribute`` exists on the estimator."""
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )
