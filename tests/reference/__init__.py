"""Reference implementations the differential tests compare against.

Verbatim copies of code that ``src/`` has since replaced with a faster
equivalent; they exist only so tests can demand identical results.
"""
