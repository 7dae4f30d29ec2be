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
Only strong components, reachability and the matchings that need not be
canonical (`scipy.sparse.csgraph`) and Vicsek flocking at r < l/2
(`scipy.spatial`) call scipy.  So `check`, `classify-links`,
`classify-nodes`, `profile`, `centrality`, `actuators`, `sensors`,
`target-sensor` and `fvs` load csgraph, and `drivers`, `switchboard` and
`obs-transition` do not: the canonical matching, the weak components,
the ODE solver, the bounded least squares and the matrix exponential
are numpy.
"""

__version__ = "0.1.0"
