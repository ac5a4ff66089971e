"""Reference implementations kept only to check the production code.

Each oracle is the straightforward (slow) form of a computation that
``src/repro`` now performs in closed, vectorized or batched form; the
equivalence tests compare the two and the benchmarks report their speed
ratio:

* :mod:`oracles.assembly` -- per-grid-point loop assembly (and solve) of the
  finite-difference cavity system (:mod:`repro.thermal.assembly`);
* :mod:`oracles.ice_assembly` -- triple-loop assembly of the finite-volume
  stack system, its per-channel row widths and a backward-Euler reference
  integrator (:mod:`repro.ice.solver`, :mod:`repro.ice.transient`);
* :mod:`oracles.flux_maps` -- the per-channel projection and the
  nearest-column heat-input closure of the flux-map rasterizer
  (:mod:`repro.thermal.multichannel`);
* :mod:`oracles.pressure` -- sampled-trapezoid Eq. (9) pressure drops and
  per-column constraint Jacobians (:mod:`repro.hydraulics.pressure`,
  :mod:`repro.core.constraints`);
* :mod:`oracles.superlu` -- the default-ordering SuperLU solve of the
  banded and minimum-degree direct-solve kernels
  (:mod:`repro.thermal.backends`);
* :mod:`oracles.bvp` -- SciPy adaptive collocation of the single-channel
  boundary-value problem (:mod:`repro.thermal.bvp`);
* :mod:`oracles.adjoint` -- the adjoint gradient that re-assembles the
  forward system and looks its factorization up by content hash
  (:mod:`repro.core.adjoint`);
* :mod:`oracles.picard` -- water-coolant Picard solves that assemble the
  finite-volume stack afresh and rebuild the FDM ``g_v`` rows lane by lane
  on every pass (:func:`repro.core.picard.picard_solve`).
"""
