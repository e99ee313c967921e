"""The scan backend's name, which the benchmark records.

The scan builds its records in one fused pass (`cli._cell_worker`);
`_kernel_py.cell_records` is the tests' oracle for that pass.
"""


def backend_name() -> str:
    return "pure-python"
