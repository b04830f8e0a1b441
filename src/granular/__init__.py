"""Simulation and verification toolkit for the homogeneous inelastic
hard-sphere Boltzmann equation with constant normal restitution, in
original and self-similar (rescaled) velocity variables."""

__version__ = "0.1.0"

from .kernels import (
    AngularKernel,
    RestitutionLaw,
    make_kernel,
    isotropic_kernel,
    post_collisional,
    tau_of,
    sample_sigma,
)

__all__ = [
    "AngularKernel",
    "RestitutionLaw",
    "make_kernel",
    "isotropic_kernel",
    "post_collisional",
    "tau_of",
    "sample_sigma",
    "__version__",
]
