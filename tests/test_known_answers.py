"""Known answers: command lines whose exit code is known in closed form,
on both sides of a threshold, each run in process through ``cli.main``.
A row goes in only where the mathematically right exit code is known, and
only once the command gives it."""
import pytest

from gsbench.cli import main

# (argv, exit code, a word stderr must name or None, why that exit code)
ROWS = [
    (["weight-check", "--weight", "gevrey:d=1"], 1, None,
     "omega = t: beta's int t/(1+t^2) dt diverges, as it does for d <= 1"),
    (["weight-check", "--weight", "gevrey:d=1.01"], 0, None,
     "omega = t^(1/d) with d > 1: beta = pi/(2 cos(pi/(2d))) is finite, and "
     "the epsilon integrals are y^(1/d) d/(d-1)"),
    (["weight-check", "--weight", "logpow:s=1"], 2, "--weight",
     "(log t)^s is a weight only for s > 1: refused at parse"),
    (["weight-check", "--weight", "logpow:s=1.01"], 0, None,
     "(log t)^s, s > 1: beta = Gamma(s+1) beta_D(s+1) and the epsilon "
     "integrals y Gamma(s+1, max(0, log y)) are finite"),
]


@pytest.mark.parametrize("argv, code, named, why", ROWS,
                         ids=[" ".join(argv) for argv, *_ in ROWS])
def test_known_exit_code(argv, code, named, why, capsys):
    assert main(list(argv)) == code, why
    if named is not None:
        assert named in capsys.readouterr().err
