"""Post-process binned classifier scores to meet group-fairness tolerances.

Records are named tuples, or plain classes where `__init__` coerces or
checks. At import, in every CLI process, a named tuple compiles one small
constructor and a plain class compiles nothing.
"""

__version__ = "0.1.0"
