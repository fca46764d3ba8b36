from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    # No Cython: compile the C source generated from the .pyx and shipped
    # beside it.  Either way the extension is optional, so without a C
    # compiler the package still works on the pure-Python kernels.
    ext_modules = [
        Extension("folkman._kernels_cy", ["src/folkman/_kernels_cy.c"], optional=True)
    ]
else:
    ext_modules = cythonize(
        [
            Extension(
                "folkman._kernels_cy",
                ["src/folkman/_kernels_cy.pyx"],
                optional=True,
            )
        ],
        compiler_directives={
            "language_level": 3,
            "boundscheck": False,
            "wraparound": False,
            "cdivision": True,
        },
    )

setup(ext_modules=ext_modules)
