"""Tests for the kernel-backend figure6 workload."""

from repro.bench.kernelbench import format_kernels, run_kernel_block


def test_block_shape_parity_and_certificate():
    block = run_kernel_block(scale=1)
    assert block["benchmark"] == "bloat"
    assert block["configuration"] == "2-object+H"
    assert block["scale"] == 1
    assert block["engine_seconds"] > 0
    assert block["engine_rule_evaluations"] > 0

    kernel = block["kernel"]
    assert kernel["parity"] is True
    assert kernel["seconds"] == (
        kernel["compile_seconds"] + kernel["solve_seconds"]
    )
    assert kernel["solve_speedup"] > 0
    assert kernel["rounds"] > 0
    assert kernel["facts_derived"] > 0

    assert block["certified"] is True


def test_format_kernels_renders_the_block():
    block = run_kernel_block(scale=1)
    text = format_kernels(block)
    assert "kernel backend (bloat/2-object+H, scale=1)" in text
    assert "generic engine" in text
    assert "compile" in text and "solve" in text
    assert "certificate: ok" in text


def test_block_is_json_serializable():
    import json

    block = run_kernel_block(scale=1)
    assert json.loads(json.dumps(block)) == block


def test_block_reports_whether_the_compile_was_cached():
    first = run_kernel_block(scale=1)
    again = run_kernel_block(scale=1)
    assert isinstance(first["kernel"]["compile_cached"], bool)
    assert again["kernel"]["compile_cached"] is True
    assert "(cached)" in format_kernels(again)
