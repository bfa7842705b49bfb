"""The traced benchmark wraps gospf functions and methods by name, where the
callers look them up. These tests fail when a change removes or renames one
of those bindings, instead of leaving the failure to the traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gospf.protocol import ControlMessage, GospfNode, MessageKind

from conftest import make_topology

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_binding_resolves(tracing):
    missing = [f"{mod}.{attr}" for mod, attr, _span in tracing.FUNCTION_BINDINGS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class(tracing):
    missing = [f"{mod}.{cls}.{method}"
               for mod, cls, method, _span in tracing.METHOD_BINDINGS
               if method not in vars(getattr(importlib.import_module(mod), cls))]
    assert missing == []


def test_handle_message_observer_reads_dedup_keys():
    # The traced run counts a delivery as fresh when msg.key() is not in
    # node.seen, read before handle_message runs.
    topo = make_topology([(1, 2), (2, 3), (3, 1)])
    node = GospfNode(1, topo, gamma_u=0.8, gamma_l=0.2, safeguard_interval=2.0,
                     mcst_reset_timer=5.0)
    msg = ControlMessage(MessageKind.LSCUP, origin=2, seq=7, links=(2,))
    assert msg.key() == (2, 7)
    assert isinstance(node.seen, set) and msg.key() not in node.seen
    node.handle_message(0.2, msg, arrival_link=1)
    assert node.seen == {(2, 7)}
