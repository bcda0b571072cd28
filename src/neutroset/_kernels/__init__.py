"""Hot-loop kernels: the Monte-Carlo counting loop, in pure Python.

``count_satisfying`` counts the rows of a sample block that a family
constraint admits; ``perfbench/`` measures its throughput.
"""

from neutroset._kernels._volume_py import count_satisfying


def backend_name() -> str:
    return "python"
