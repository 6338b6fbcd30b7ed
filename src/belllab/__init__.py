"""belllab: a simulation and analysis laboratory for Bell-CHSH experiments.

Modules:

* ``core`` - domain types, the columnar ``ContextTable``, CHSH statistic
* ``couplings`` - the five coupling-model families (exact laws and samplers)
* ``protocol`` - source-based and event-ready protocol simulators
* ``pipeline`` - coincidence pairing and post-selection
* ``analysis`` - hypothesis tests, no-signalling tests, LP feasibility, sweeps
* ``cli`` - the command-line front end and file formats (with ``io``)
"""

__version__ = "0.1.0"
