"""What perfbench needs of cubal: its tracer wraps functions by module and
name, and its dense-algebra check reads phi's coefficient rows.  A break in
either shows here, not only in a benchmark run."""

import importlib
import random
from fractions import Fraction

from cubal.cubic import CubicMatrix
from cubal.structure import accompanying_image

from conftest import perfbench_module


def test_every_traced_target_resolves():
    missing = []
    for module_name, attr in perfbench_module("tracing").TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:  # a method, which the tracer reads off its class
            cls_name, method = attr.split(".")
            found = vars(getattr(module, cls_name, object)).get(method)
        else:
            found = getattr(module, attr, None)
        if not callable(found):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_phi_coeffs_are_m_row_tuples():
    rng = random.Random(5)
    for m in (1, 2, 3):
        for scale in (1, 3):  # int and Fraction entries
            entries = [Fraction(rng.randint(-3, 3), scale) for _ in range(m**3)]
            coeffs = accompanying_image(CubicMatrix(m, entries)).coeffs
            assert type(coeffs) is tuple and len(coeffs) == m
            assert all(type(row) is tuple and len(row) == m for row in coeffs)
