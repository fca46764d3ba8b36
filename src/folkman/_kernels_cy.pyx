# The compiled kernel twin is the hand-written C module _kernels_cy.c beside
# this file; nothing is generated from here.  This stub stays only because
# the benchmark's build stamp (perfbench/bench_build.py) hashes it, and goes
# with the next change to the benchmark.
