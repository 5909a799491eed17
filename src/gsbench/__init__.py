"""Verification workbench for composition estimates in weighted smooth classes.

Submodules (import names from them; the package itself loads only the
standard library):
  specs       numpy-free grammar of weight, sequence and function specs
  grids       grid specs and their points
  weights     weight functions, Young conjugates, condition checks
  sequences   weight sequences, associated weight, sequence conditions
  fdb         Faa di Bruno by partial Bell polynomials, partitions
  logdomain   signed log-domain reals and sums
  functions   model functions, jets, seminorm estimators, growth index
  chains      the four scalar chains (compactness, bounded, negative,
              nuclear), numpy-free
  experiments inequality-chain experiments (proof skeletons) that build
              arrays; re-exports the four chains
  reports     result containers and deterministic JSON/CSV emission
  errors      exception types
  cli         deterministic command-line front end
"""

__version__ = "0.1.0"
