"""A weight given by any callable, for tests that need a weight the package
does not build: omega(t) = fn(|t|).  Its kind has no closed-form conjugate,
so ``ConjugateEvaluator`` runs the golden section on it."""
from gsbench.weights import WeightFunction


class FnWeight(WeightFunction):
    def __init__(self, fn, label: str = "fn"):
        self.kind, self.label, self.knots, self.fn = "fn", label, (), fn

    def __call__(self, t: float) -> float:
        return self.fn(abs(float(t)))
