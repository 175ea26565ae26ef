"""Exact analysis of fixed spaces of positive linear contractions.

Everything is rational arithmetic: kernels and characteristic
polynomials, polyhedral cone geometry of fixed spaces, suprema within
them read off the extreme rays of their positive cones (exact linear
programs where a space is not a lattice subspace), symbolic
sequence-space operators for the infinite-dimensional counterexamples,
and cyclicity checks on the peripheral spectrum.

The package re-exports nothing: import each name from the module that
defines it (`latfix.conegeom`, `latfix.cyclicity`, `latfix.fixlattice`,
`latfix.opcore`, `latfix.seqspace`, `latfix.serialize`, or a module of
`latfix.exactnum`), so that importing one module loads only what it
needs.
"""

__version__ = "0.1.0"
