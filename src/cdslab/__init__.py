"""cdslab: a desk-scale laboratory for conditional disclosure of secrets.

Subpackages and modules:

- :mod:`cdslab.qcore` — states, channels, distances, decoder search
- :mod:`cdslab.framework` — protocol types, execution, lifting, costs
- :mod:`cdslab.classical` — perfectly secure classical CDS/PSM constructions
- :mod:`cdslab.toys` — tiny hand-rolled CDQS protocols used as test subjects
- :mod:`cdslab.quantum` — Deutsch-Jozsa shortening, hybrid CDQS, Boolean Hidden Matching PSQM
- :mod:`cdslab.forrelation` — forrelation instances, circuits, Clifford+T
- :mod:`cdslab.verifier` — correctness/security estimation and reports
- :mod:`cdslab.lowerbound` — one-way quantization and two-prover reductions
- :mod:`cdslab.cli` — suite runner and report emission
"""

__version__ = "0.1.0"
