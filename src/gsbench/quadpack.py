"""Adaptive Gauss-Kronrod quadrature: QUADPACK's dqagse and dqagie
(Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*,
Springer 1983), ported step for step.

``quad_many(f, intervals)`` integrates over each (a, b) with the 21-point
Kronrod rule (dqagse), or over [a, inf) with the 15-point rule on
x = a + (1 - t)/t, t in (0, 1] (dqagie).  Each integral bisects the interval
of largest error (dqpsrt keeps the error ordering) and extrapolates its
areas with the epsilon algorithm (dqelg), all in lockstep rounds: per round
and rule, one call ``f(t, owner)`` takes the nodes of every unfinished
integral's next pieces, owner[k] the index in intervals of t[k]'s integral.
f must compute each value from its node and owner alone (elementwise numpy,
per-element libm), so that the batch moves no bit.  The rule sums add their
terms in QUADPACK's order by np.add.accumulate along each row, strictly left
to right (np.sum adds pairwise), and min, max and ** keep Python's semantics
per element.  So for an integrand that stays finite, value, error estimate
and ier equal those of the Fortran routines (and of ``scipy.integrate.quad``)
bit for bit; where it reaches inf or NaN, Python's max and min may part from
Fortran's.  ``quad(f, a, b)`` is the batch of one.

ier: 0 converged; 1 the subdivision limit was reached; 2 roundoff
prevents the tolerance; 3 bad integrand behaviour at some point; 4 the
extrapolation table does not converge; 5 the integral probably diverges.
Lists are 1-based as in the Fortran: slot 0 is unused.
"""
from __future__ import annotations

import math
import sys
from itertools import repeat
from typing import Callable, Optional

import numpy as np

EPMACH = sys.float_info.epsilon
UFLOW = sys.float_info.min
OFLOW = sys.float_info.max
EPSABS = EPSREL = 1.49e-8  # scipy.integrate.quad's default tolerances


class _Rule:
    """A Gauss-Kronrod pair from its Kronrod abscissae xk > 0 and weights
    wk, the Gauss weight of each abscissa (None: not a Gauss node), the
    centre's weights, and the order in which the rule adds up its pairs."""

    def __init__(self, xk, wk, wg, wk0, wg0, order):
        self.n, self.wk, self.wk0, self.wg0 = len(xk), np.array(wk), wk0, wg0
        # the pairs in summation order, and the Gauss ones among them
        self.order, self.wk_steps = np.array(order), np.array([wk[j] for j in order])
        self.gauss = np.array([k for k, j in enumerate(order) if wg[j] is not None])
        self.wg = np.array([wg[j] for j in order if wg[j] is not None])
        # the nodes of [c - h, c + h] off the centre are c + h u, for
        # c - h x equals c + h (-x)
        self.u = np.array((*(-x for x in xk), *xk))


# dqk21: the 10-point Gauss nodes are xk[1], xk[3], ..., summed first;
# the centre is not a Gauss node
_K21 = _Rule(
    xk=(0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720),
    wk=(0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077600525452218, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068),
    wg=(None, 0.066671344308688137593568809893332, None, 0.149451349150580593145776339657697,
        None, 0.219086362515982043995534934228163, None, 0.269266719309996355091226921569469,
        None, 0.295524224714752870173892994651338),
    wk0=0.149445554002916905664936468389821, wg0=None,
    order=(1, 3, 5, 7, 9, 0, 2, 4, 6, 8))

# dqk15i: the 7-point Gauss weights, with dqk15i's zeros at the other nodes
_K15 = _Rule(
    xk=(0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245),
    wk=(0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649),
    wg=(0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
        0.0, 0.381830050505118944950369775488975, 0.0),
    wk0=0.209482141084727828012999174891714, wg0=0.417959183673469387755102040816327,
    order=range(7))


def _kronrod(rule: _Rule, f: Callable, a: np.ndarray, b: np.ndarray,
             owner: np.ndarray, boun: Optional[np.ndarray]) -> list:
    """(result, abserr, resabs, resasc) of dqk21 (boun None) or of dqk15i on
    [boun, inf) mapped to t in (0, 1], for each piece [a, b] of the arrays,
    with every node in one call of f."""
    n = rule.n
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    t = np.concatenate((centr[:, None], centr[:, None] + hlgth[:, None] * rule.u), axis=1).ravel()
    owner = np.repeat(owner, 2 * n + 1)
    fv = f(t, owner) if boun is None else (f(np.repeat(boun, 2 * n + 1) + (1.0 - t) / t, owner) / t) / t
    fv = np.asarray(fv, dtype=float).reshape(len(a), 2 * n + 1)
    fc, f1, f2 = fv[:, 0], fv[:, 1:n + 1], fv[:, n + 1:]
    # resk, resg, resabs and resasc per row: a start, then the terms in
    # QUADPACK's order; dqk21's resg starts at 0.0, and zeros ahead keep it
    terms = np.empty((4, len(a), n + 1))
    fsum = (f1 + f2)[:, rule.order]
    terms[0, :, 0] = rule.wk0 * fc
    terms[0, :, 1:] = rule.wk_steps * fsum
    g = n + 1 - len(rule.wg)
    terms[1, :, :g] = 0.0 if rule.wg0 is None else (rule.wg0 * fc)[:, None]
    terms[1, :, g:] = rule.wg * fsum[:, rule.gauss]
    terms[2, :, 0] = np.abs(terms[0, :, 0])
    terms[2, :, 1:] = rule.wk_steps * (np.abs(f1) + np.abs(f2))[:, rule.order]
    resk, resg, resabs = np.add.accumulate(terms[:3], axis=2)[:, :, -1]
    reskh = (resk * 0.5)[:, None]
    terms[3, :, 0] = rule.wk0 * np.abs(fc - reskh[:, 0])
    terms[3, :, 1:] = rule.wk * (np.abs(f1 - reskh) + np.abs(f2 - reskh))
    resasc = np.add.accumulate(terms[3], axis=1)[:, -1]
    result = resk * hlgth
    # resabs |h| and resasc |h| equal |resabs h| and |resasc h|: both sums are >= 0
    resabs, resasc, abserr = np.abs(np.array([resabs, resasc, resk - resg]) * hlgth)
    # Python's float ** per element, not numpy's power, whose last bit may
    # differ; then min(1.0, q) and max(lo, e), taking Python's side for NaN
    q = np.fromiter(map(pow, (200.0 * abserr / resasc).tolist(), repeat(1.5)), float, len(a))
    abserr = np.where((resasc != 0.0) & (abserr != 0.0), resasc * np.where(q < 1.0, q, 1.0), abserr)
    lo = (EPMACH * 50.0) * resabs
    abserr = np.where(resabs > UFLOW / (50.0 * EPMACH), np.where(abserr > lo, abserr, lo), abserr)
    return np.array([result, abserr, resabs, resasc]).T.tolist()


def quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
         limit: int = 50) -> tuple:
    """(value, abs_error, ier) of the integral of f over [a, b], for a
    finite a <= b and b finite or inf, to scipy.integrate.quad's default
    tolerances."""
    return quad_many(lambda t, owner: f(t), [(a, b)], limit)[0]


def quad_many(f: Callable[[np.ndarray, np.ndarray], np.ndarray], intervals: list,
              limit: int = 50) -> list:
    """quad's (value, abs_error, ier) for each (a, b) of intervals, in lockstep
    rounds of f(t, owner).  As in Fortran, numpy warnings stay silent."""
    out = [None] * len(intervals)
    with np.errstate(all="ignore"):
        runs = [_qag(float(a), float(b), limit) for a, b in intervals]
        asks = {i: next(run) for i, run in enumerate(runs)}
        while asks:
            rows = {i: [] for i in asks}
            for rule in (_K21, _K15):
                todo = [(i, boun, a, b) for i, (r, boun, pieces) in asks.items()
                        if r is rule for a, b in pieces]
                if todo:
                    owner, boun, a, b = map(np.array, zip(*todo))
                    for i, row in zip(owner.tolist(), _kronrod(
                            rule, f, a, b, owner, None if rule is _K21 else boun)):
                        rows[i].append(row)
            asks = {}
            for i, got in rows.items():
                try:
                    asks[i] = runs[i].send(got)
                except StopIteration as done:
                    out[i] = done.value
    return out


def _qag(a: float, b: float, limit: int):
    """dqagse, or dqagie for b = inf, as one routine: yields each (rule, boun,
    pieces), is sent their _kronrod rows, returns (value, abs_error, ier)."""
    rule, boun, a, b = (_K15, a, 0.0, 1.0) if b == math.inf else (_K21, None, a, b)
    (result, abserr, defabs, resabs), = yield rule, boun, [(a, b)]
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    ier = 0
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier
    alist, blist, rlist, elist, iord = [0.0, a], [0.0, b], [0.0, result], [0.0, abserr], [0, 1]
    rlist2, res3la = [0.0] * 53, [0.0] * 4
    rlist2[1] = result
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, OFLOW
    nrmax, nres, numrl2, ktmin, ierro, iroff1, iroff2, iroff3 = 1, 0, 2, 0, 0, 0, 0, 0
    extrap = noext = False
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    summed = False  # leave by QUADPACK's label 115: result is the sum of rlist
    for last in range(2, limit + 1):
        # bisect the interval of the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        b1 = a2 = 0.5 * (alist[maxerr] + blist[maxerr])
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = yield (
            rule, boun, [(a1, b1), (a2, b2)])
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(EPSABS, EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        maxerr, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        errmax = elist[maxerr]
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # go on bisecting until the next interval is the smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the larger
            # intervals first, when one of them is still in the ordered list
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax, extrap, small, erlarg = 1, False, small * 0.5, errsum
    if not summed and abserr == OFLOW:
        summed = True
    elif not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            summed = True
        elif area == 0.0:
            return result, abserr, ier - 1 if ier > 2 else ier
    if summed:
        result = 0.0
        for r in rlist[1:]:  # sequential: Python's sum() may compensate
            result = result + r
        return result, errsum, ier - 1 if ier > 2 else ier
    # test on divergence
    if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        ratio = np.float64(result) / area  # area may be 0: IEEE, not ZeroDivisionError
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple:
    """dqpsrt: keep iord[1..] the intervals in descending order of error,
    as far as the remaining subdivisions can use, after the bisection of
    maxerr into maxerr and last; (the next maxerr, nrmax)."""
    if last <= 2:
        iord[1:] = [1, 2]
        return iord[nrmax], nrmax
    errmax = elist[maxerr]
    # a bisection that raised the error: move maxerr up past smaller errors
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
    errmin = elist[last]
    iord.extend([0] * (jupbn + 1 - len(iord)))
    # insert errmax top-down, then errmin bottom-up
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
        return iord[nrmax], nrmax
    iord[i - 1] = maxerr
    k = jbnd
    for _ in range(i, jbnd + 1):
        isucc = iord[k]
        if errmin < elist[isucc]:
            iord[k + 1] = last
            return iord[nrmax], nrmax
        iord[k + 1] = isucc
        k -= 1
    iord[i] = last
    return iord[nrmax], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple:
    """dqelg: one step of Wynn's epsilon algorithm on epstab[1..n], whose
    last entry is new; (n, the extrapolated value, its error, nres)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two close elements: omit part of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:
            n = i + i - 1  # irregular behaviour: omit part of the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr, result = error, res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        epstab[1:n + 1] = epstab[num - n + 1:num + 1]
    if nres < 4:
        res3la[nres] = result
        abserr = OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1:] = [res3la[2], res3la[3], result]
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
