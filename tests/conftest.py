import os
import sys

# The tests read the benchmark's modules: its exact finite-size oracle and
# its traced pipeline.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
