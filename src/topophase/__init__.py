"""Persistent homology of parameterized ground-state expectation clouds.

Pipeline: build a quantum model, map its ground states to points in R^m via
observable expectation values, filter the cloud with a Vietoris-Rips
construction, and read off barcodes, persistent Betti numbers, and persistent
Dirac/Laplacian spectra.  Phase transitions show up as integer jumps in the
probe values across the parameter grid.
"""

from .statecloud import (
    DegenerateGroundStateError,
    InvalidModelError,
    ObservableSet,
    QuantumState,
    SSHChain,
    StateCloud,
    build_cloud,
    build_ssh_hamiltonian,
    cloud_csv_text,
    cloud_from_csv,
    cloud_to_csv,
    expectation,
    ground_state,
    haar_unitary,
    is_hermitian,
    phi_map,
    ssh_observables,
)
from .simplicial import (
    FilteredComplex,
    boundary_matrix,
    vr_filtration,
)
from .persistence import (
    PersistenceDiagram,
    betti_oracle,
    bottleneck,
    diagram_from_json,
    diagram_to_json,
    persistent_betti,
    reduce,
    render_svg,
    render_text,
)
from .dirac import (
    dirac_spectrum,
    qpe_distribution,
    spectrum_to_json,
)
from .phase import (
    ConsistencyError,
    PhaseScanReport,
    ScanConfig,
    continuity_check,
    probe_key,
    report_from_json,
    report_to_json,
    sweep,
    unitary_conjugate_scan,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "DegenerateGroundStateError",
    "FilteredComplex",
    "InvalidModelError",
    "ObservableSet",
    "PersistenceDiagram",
    "PhaseScanReport",
    "QuantumState",
    "SSHChain",
    "ScanConfig",
    "StateCloud",
    "betti_oracle",
    "bottleneck",
    "boundary_matrix",
    "build_cloud",
    "build_ssh_hamiltonian",
    "cloud_csv_text",
    "cloud_from_csv",
    "cloud_to_csv",
    "continuity_check",
    "diagram_from_json",
    "diagram_to_json",
    "dirac_spectrum",
    "expectation",
    "ground_state",
    "haar_unitary",
    "is_hermitian",
    "persistent_betti",
    "phi_map",
    "probe_key",
    "qpe_distribution",
    "reduce",
    "render_svg",
    "render_text",
    "report_from_json",
    "report_to_json",
    "spectrum_to_json",
    "ssh_observables",
    "sweep",
    "unitary_conjugate_scan",
    "vr_filtration",
]
