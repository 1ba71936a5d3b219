"""Every span the perfbench tracer installs names a live wittnorm function.

A rename in src/ then fails here instead of breaking a traced benchmark run.
"""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import tracer  # noqa: E402


def test_every_layer_resolves():
    for mod_name, path, _, _ in tracer.LAYERS:
        owner = importlib.import_module(f"wittnorm.{mod_name}")
        *cls_path, attr = path.split(".")
        for cls_name in cls_path:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr)), f"{mod_name}.{path}"


def test_reported_names_are_layers():
    names = {name for _, _, name, _ in tracer.LAYERS}
    assert set(tracer.REPORTED) <= names


def test_install_then_uninstall_restores():
    intlinalg = importlib.import_module("wittnorm.intlinalg")
    abgroups = importlib.import_module("wittnorm.abgroups")
    before = (intlinalg.smith_normal_form, abgroups.smith_normal_form)
    t = tracer.Tracer()
    t.install()
    try:
        assert intlinalg.smith_normal_form is not before[0]
        assert abgroups.smith_normal_form is not before[1]
        abgroups.present_quotient(1, intlinalg.IntMatrix(1, 1, {(0, 0): 4}))
        assert t.totals["intlinalg.smith_normal_form"]["calls"] == 1
    finally:
        t.uninstall()
    assert (intlinalg.smith_normal_form, abgroups.smith_normal_form) == before
