from setuptools import Extension, setup

# The compiled kernels are one hand-written C file against the CPython C API.
# The extension is optional, so without a C compiler the package still works
# on the pure-Python kernels.
setup(
    ext_modules=[
        Extension("folkman._kernels_cy", ["src/folkman/_kernels_cy.c"], optional=True)
    ]
)
