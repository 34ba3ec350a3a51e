"""Tests for atomic artifact writes."""

from __future__ import annotations

import numpy as np
import pytest

from sgdtext import artifacts
from sgdtext.sgd import LinearModel, load_model, save_model


def tiny_model(weight: float) -> LinearModel:
    return LinearModel(
        weights=np.array([[weight, 0.0]]), intercepts=np.array([0.5]), classes=[1], feature_dim=2
    )


class TestAtomicWrite:
    def test_writes_text(self, tmp_path):
        path = tmp_path / "out.txt"
        with artifacts.atomic_write(path) as fh:
            fh.write("first\n")
        assert path.read_bytes() == b"first\n"

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_model(1.0), path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="serializer"):
            with artifacts.atomic_write(path) as fh:
                fh.write('{"weights": [')
                raise RuntimeError("serializer failed halfway")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_failed_replace_keeps_the_previous_model(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_model(tiny_model(1.0), path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(artifacts.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_model(tiny_model(2.0), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_model(path).weights[0, 0] == 1.0
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
