import numpy as np
import scipy


def pytest_report_header(config):
    # the bit-identity tests reproduce numpy's einsum summation order
    return f"numpy {np.__version__}, scipy {scipy.__version__}"
