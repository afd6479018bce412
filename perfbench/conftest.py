"""Lets ``python3 -m pytest perfbench`` import the benchmark and the package."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
