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
    # the paper's first result: psi' bounded is necessary, so the chain
    # finds its witnesses |psi'(y_m)| >= 2^(md) only where psi' is unbounded
    (["experiment", "bounded", "--d", "2", "--psi", "poly:0,0,1"], 0, None,
     "psi = x^2: |psi'(y)| = 2y reaches every 2^(2m), m <= 12, below 1e12"),
    (["experiment", "bounded", "--d", "2", "--psi", "poly:0,0,0,1"], 0, None,
     "psi = x^3: |psi'(y)| = 3y^2 reaches every 2^(2m)"),
    (["experiment", "bounded", "--d", "2", "--psi", "poly:0,1"], 2, "--psi",
     "psi = x: psi' = 1 never reaches 2^(md) = 4"),
    (["experiment", "bounded", "--d", "2", "--psi", "poly:0,3"], 2, "--psi",
     "psi = 3x: psi' = 3 never reaches 2^(md) = 4"),
    (["experiment", "bounded", "--d", "2", "--psi", "sqrt1px2"], 2, "--psi",
     "psi = sqrt(1+x^2): |psi'| < 1 everywhere"),
    # (h o psi)^(n) = h^(n) psi'(0)^n with psi'(0) = 2: |psi'|^n passes the
    # default threshold 1e6 first at n = 20, since 2^19 < 1e6 < 2^20
    (["experiment", "compactness", "--psi", "poly:0,2,0,1", "--x0", "0",
      "--weight", "gevrey:d=2", "--nmax", "19"], 1, None,
     "2^n <= 2^19 < 1e6 for every n <= 19: no crossing"),
    (["experiment", "compactness", "--psi", "poly:0,2,0,1", "--x0", "0",
      "--weight", "gevrey:d=2", "--nmax", "20"], 0, None,
     "2^20 > 1e6: the blow-up crosses at n = 20"),
    (["experiment", "compactness", "--psi", "poly:0,1", "--x0", "0",
      "--weight", "gevrey:d=2"], 2, "--x0",
     "psi'(0) = 1: |psi'|^n never grows, refused naming --x0"),
    # only psi'(x0) enters a row, so no higher order can refuse
    (["experiment", "compactness", "--psi", "poly:0,2,0,1e308", "--x0", "0",
      "--weight", "gevrey:d=2", "--nmax", "20"], 0, None,
     "psi'(0) = 2 crosses at n = 20; psi'''(0) = 6e308 overflows a float, "
     "but is never read"),
    (["experiment", "compactness", "--psi", "pow1px2:a=1.5", "--x0", "1",
      "--weight", "gevrey:d=2", "--nmax", "300"], 0, None,
     "psi'(1) = 3 sqrt 2 > 1 crosses 1e6 at n = 10; orders past pow1px2's "
     "jet cap of 200 are never read"),
    # gbump(g, r) at x is gbump(g, 1) at x/r, its n-th derivative scaled by
    # r^-n: every order is nonzero inside the support off 0, whatever r, and
    # r^2, which under- or overflows a float here, is never formed
    (["estimate-index", "--function", "gbump:g=0.5,r=1e-300", "--x", "1e-301",
      "--jmax", "10"], 0, None,
     "x/r = 0.1: ten nonzero orders, fitted in logs"),
    (["estimate-index", "--function", "gbump:g=1,r=1e200", "--x", "1e199",
      "--jmax", "10"], 0, None,
     "x/r = 0.1: ten nonzero orders, fitted in logs"),
    (["seminorm", "--family", "p", "--function", "gbump:g=1,r=1e200", "--weight",
      "gevrey:d=2", "--lam", "1", "--grid", "lin:0,1e199,5", "--jmax", "5"], 0, None,
     "|x|/r <= 0.125 on the box: finite logs, so a sup with a witness"),
    (["estimate-index", "--function", "gbump:g=1", "--x", "0.999999", "--jmax",
      "30"], 0, None,
     "f^(n)(0.999999) ~ e^(-5e5) times a growing factor: nonzero at every "
     "order, though below the float range"),
    (["identities", "--jmax", "30"], 0, None,
     "both sums are integers, checked against 2^(j-1) and the Lah sum"),
    (["identities", "--jmax", "31"], 2, "--jmax",
     "the identities are checked for 1 <= j <= 30 only"),
    # the negative chain's regime d <= d' < (k+1)d
    (["experiment", "negative", "--d", "2", "--k", "1", "--dprime", "3.5",
      "--jmax", "400"], 0, None,
     "2 <= 3.5 < 4: the lower bound diverges"),
    (["experiment", "negative", "--d", "2", "--k", "1", "--dprime", "4",
      "--jmax", "400"], 2, "--dprime",
     "d' = (k+1)d = 4: the little-o comparison fails, refused naming --dprime"),
    (["experiment", "cauchy", "--psi", "sqrt1px2", "--delta", "0.5",
      "--jmax", "10"], 0, None,
     "sqrt(1+x^2) is holomorphic on a cone around the real axis, so the "
     "Cauchy bound holds for every delta in (0, 1)"),
    (["sequence-check", "--sequence", "gevreyseq:d=2"], 0, None,
     "M_p = p!^2: M_(p-1)/M_p = 1/p^2 is summable, and every condition holds"),
    (["sequence-check", "--sequence", "gevreyseq:d=1"], 1, None,
     "M_p = p!: M_(p-1)/M_p = 1/p, so M3' (sum 1/p) diverges, and m3prime "
     "and gamma1 fail"),
    # sigma(x) <= C (1 + omega(psi(x))) with gevrey sigma, omega and psi = x^r
    # at both ends: C < inf iff 1/d_sigma <= r/d_omega
    (["experiment", "necessary", "--psi", "poly:0,0,1", "--sigma", "gevrey:d=1.5",
      "--omega", "gevrey:d=2"], 0, None,
     "psi = x^2: |x|^(2/3) against |x|^(2/2), and 2/3 <= 1"),
    (["experiment", "necessary", "--psi", "poly:0,0,1", "--sigma", "gevrey:d=0.9",
      "--omega", "gevrey:d=2"], 1, None,
     "psi = x^2: |x|^(1/0.9) against |x|^(2/2), and 1/0.9 > 1"),
    (["experiment", "necessary", "--psi", "poly:0,1", "--sigma", "gevrey:d=1.5",
      "--omega", "gevrey:d=2"], 1, None,
     "psi = x: |x|^(2/3) against |x|^(1/2), and 2/3 > 1/2"),
    (["experiment", "necessary", "--psi", "poly:0,0,1", "--sigma", "gevrey:d=2",
      "--omega", "gevrey:d=0.5"], 0, None,
     "psi = x^2: |x|^(1/2) against |x|^(2/0.5), and 1/2 <= 4"),
]


@pytest.mark.parametrize("argv, code, named, why", ROWS,
                         ids=[" ".join(argv) for argv, *_ in ROWS])
def test_known_exit_code(argv, code, named, why, capsys):
    assert main(list(argv)) == code, why
    if named is not None:
        assert named in capsys.readouterr().err
