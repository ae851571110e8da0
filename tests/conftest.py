"""Pin BLAS and OpenMP pools to one thread before numpy loads, as CI does.

Monte Carlo CV forks blocks of replications only from a process that runs
one thread (``regsel.crossval._may_fork``); with a multi-threaded BLAS the
8000-replication cases would stay in one process, and the tests that force
forked blocks would run beside a BLAS pool that every forked process
restarts, which makes them contend for the same cores.  A value already in
the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
