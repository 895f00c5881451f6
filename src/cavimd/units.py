"""Unit constants and conversions.

Everything internal runs in Hartree atomic units (hbar = e = m_e = 1,
energies in Hartree, lengths in bohr, time in a.u.). File and CLI
boundaries use cm^-1 / fs / Angstrom / eV / K; these constants are the
single source of truth for the conversions and are echoed into every run
manifest.
"""

from __future__ import annotations

# 1 Hartree expressed in other energy units
CM1_PER_HARTREE = 219474.6313632
EV_PER_HARTREE = 27.211386245988

# masses: 1 unified atomic mass unit in electron masses
EMASS_PER_AMU = 1822.888486209

# Boltzmann constant, Hartree per Kelvin
KB_HARTREE_PER_K = 3.166811563e-6

# time: 1 fs in atomic time units
AUT_PER_FS = 41.341373335

# length
ANGSTROM_PER_BOHR = 0.529177210903


def fs_to_au(x):
    return x * AUT_PER_FS


def au_to_fs(x):
    return x / AUT_PER_FS


#: conversion table recorded in run manifests
UNIT_TABLE = {
    "cm^-1 per Hartree": CM1_PER_HARTREE,
    "eV per Hartree": EV_PER_HARTREE,
    "electron masses per amu": EMASS_PER_AMU,
    "k_B (Hartree/K)": KB_HARTREE_PER_K,
    "atomic time units per fs": AUT_PER_FS,
    "Angstrom per bohr": ANGSTROM_PER_BOHR,
}
