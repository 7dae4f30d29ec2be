"""netctl: controllability and observability analysis of complex networks.

Submodules:
  graphs        digraph/bipartite primitives, matching, SCCs, cores
  generators    random graph ensembles (ER, BA)
  structural    minimum drivers, link/node classes, profiles, actuators
  cavity        ensemble-averaged driver density via generating functions
  exact         eigenvalue-based (PBH) minimum inputs for weighted systems
  energy        controllability Gramians and minimum control energy
  observability sensors, target estimation, dominating sets, observers
  steering      nonlinear steering: entrainment, chaos control, FVS clamping
  collective    synchronizability, pinning control, flocking
  cli           command-line front end

No module imports scipy at load time: each function imports the scipy
subpackage it calls, so a `netctl` run loads only what its kernel needs.
Only control centrality's maximum-weight matching
(`scipy.sparse.csgraph`) and Vicsek flocking at r < l/2
(`scipy.spatial`) call scipy, so `centrality` and `vicsek` are the only
subcommands that load it.  The matching, the strong and weak components,
reachability, the ODE solver, the bounded least squares and the matrix
exponential are numpy and plain Python.
"""

__version__ = "0.1.0"
