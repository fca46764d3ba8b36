from setuptools import Extension, setup

# The C source is generated from _kernels_cy.pyx (`cython _kernels_cy.pyx`)
# and tracked beside it.  The extension is optional, so without a C compiler
# the package still works on the pure-Python kernels.
setup(
    ext_modules=[
        Extension("folkman._kernels_cy", ["src/folkman/_kernels_cy.c"], optional=True)
    ]
)
