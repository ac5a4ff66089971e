"""Reference implementations kept only to check the production code.

Each oracle is the straightforward (slow) form of a computation that
``src/repro`` now performs in closed or batched form; the equivalence tests
compare the two and the benchmarks report their speed ratio.
"""
