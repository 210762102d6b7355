"""Tests for bench_guard.py, on fixtures built from the committed baseline.

Run: python3 -m unittest discover -s ci
"""

import contextlib
import io
import json
import os
import re
import unittest

import bench_guard

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, os.pardir, "BENCH_attack.json")


def with_value(rows, name, value):
    """A copy of `rows` with row `name`'s value replaced."""
    assert any(r["name"] == name for r in rows), name
    return [dict(r, value=value) if r["name"] == name else dict(r) for r in rows]


class CompareTest(unittest.TestCase):
    def setUp(self):
        with open(BASELINE) as f:
            self.lines = [line for line in f if line.strip()]
        self.base = [json.loads(line) for line in self.lines]

    def failures(self, fresh, base=None):
        with contextlib.redirect_stdout(io.StringIO()):
            return bench_guard.compare(self.base if base is None else base, fresh)

    def names(self, kind):
        return [r["name"] for r in self.base if r["kind"] == kind]

    def value(self, name):
        return next(r["value"] for r in self.base if r["name"] == name)

    def assert_fails_on(self, name, fresh):
        failures = self.failures(fresh)
        self.assertEqual(len(failures), 1, failures)
        self.assertTrue(failures[0].startswith(f"{name}: "), failures)

    def test_unperturbed_passes(self):
        self.assertEqual(self.failures(self.base), [])

    def test_every_kind_is_present(self):
        for kind in ("higher", "info", "exact", "flag"):
            self.assertTrue(self.names(kind), kind)

    def test_gated_row_down_31_fails_down_29_passes(self):
        for name in self.names("higher"):
            base = self.value(name)
            self.assert_fails_on(name, with_value(self.base, name, base * 0.69))
            self.assertEqual(self.failures(with_value(self.base, name, base * 0.71)), [])

    def test_lower_row_gates_the_inverse_ratio(self):
        base = [{"name": "lat", "unit": "ms", "value": 10.0, "kind": "lower"}]
        self.assertTrue(self.failures(with_value(base, "lat", 10.0 / 0.69), base))
        self.assertEqual(self.failures(with_value(base, "lat", 10.0 / 0.71), base), [])
        self.assertEqual(self.failures(with_value(base, "lat", 1.0), base), [])

    def test_info_row_down_90_passes(self):
        for name in self.names("info"):
            value = self.value(name)
            if isinstance(value, bool):
                continue
            self.assertEqual(self.failures(with_value(self.base, name, value * 0.1)), [], name)

    def test_exact_row_changed_in_last_digit_fails(self):
        for line, row in zip(self.lines, self.base):
            if row["kind"] != "exact":
                continue
            text = re.search(r'"value": ([^,]+),', line).group(1)
            last = (int(text[-1]) + 1) % 10
            altered = line.replace(f'"value": {text},', f'"value": {text[:-1]}{last},')
            fresh = [json.loads(altered) if r["name"] == row["name"] else r for r in self.base]
            self.assert_fails_on(row["name"], fresh)

    def test_false_flag_fails(self):
        for name in self.names("flag"):
            self.assert_fails_on(name, with_value(self.base, name, False))

    def test_new_false_flag_fails(self):
        fresh = self.base + [{"name": "new.ok", "unit": "bool", "value": False, "kind": "flag"}]
        self.assert_fails_on("new.ok", fresh)

    def test_missing_gated_exact_or_flag_row_fails(self):
        for kind in ("higher", "exact", "flag"):
            for name in self.names(kind):
                self.assert_fails_on(name, [r for r in self.base if r["name"] != name])

    def test_missing_info_row_passes(self):
        name = self.names("info")[0]
        self.assertEqual(self.failures([r for r in self.base if r["name"] != name]), [])

    def test_chunk_count_mismatch_fails(self):
        name = "logical_chunks_per_backup"
        self.assert_fails_on(name, with_value(self.base, name, self.value(name) - 1))


if __name__ == "__main__":
    unittest.main()
