"""Independent oracles the tests check the engine against."""

from multimult.hilbert import _fit_window
from multimult.monomials import INFINITE, MINUS_INFINITY, ideal_power, krull_dim
from multimult.multiplicity import NotMultiplicitySystemError


def hilbert_samuel(module, a) -> int:
    """The multiplicity of an ideal of definition: the top binomial-basis
    coefficient of the exactly fitted polynomial n -> length(M / a^(n+1) M)."""
    if module.is_zero():
        return 0
    if module.quotient_by(a).length() == INFINITE:
        raise NotMultiplicitySystemError("not an ideal of definition")
    dim = krull_dim(module)
    degree = 0 if dim == MINUS_INFINITY else int(dim)
    maxdeg = max(
        1,
        a.max_generator_degree()
        + module.relations.max_generator_degree()
        + module.top.max_generator_degree(),
    )

    def value(pt):
        return int(module.quotient_by(ideal_power(a, pt[0] + 1)).length())

    fit = _fit_window(value, 1, degree, degree + maxdeg)
    top = fit.poly.coefficient((degree,))
    assert top >= 0
    return top
