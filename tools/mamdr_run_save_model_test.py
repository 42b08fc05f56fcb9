#!/usr/bin/env python3
"""End-to-end test of ``mamdr_run --save-model``.

MAMDR keeps Θ = θS + θd outside the model, so the model checkpoint must
hold θS (the store's ``shared/<i>`` tensors, bit for bit) and
``<path>.store`` must hold every domain's θd. Frameworks that keep one full
parameter copy per domain are rejected at flag parsing with exit code 2.

Run via ctest, or directly:
``python3 tools/mamdr_run_save_model_test.py build/tools/mamdr_run``.
"""

import os
import struct
import subprocess
import sys
import tempfile
import unittest

MAMDR_RUN = None  # set from argv in __main__
BASE_ARGS = ["--scale", "0.05", "--epochs", "1"]


def read_checkpoint(path):
    """(name, raw float bytes) pairs of a MAMDRCKP v2 file, in file order."""
    with open(path, "rb") as f:
        data = f.read()
    assert data[:8] == b"MAMDRCKP", path
    (version,) = struct.unpack_from("<I", data, 8)
    assert version == 2, version
    (count,) = struct.unpack_from("<Q", data, 12)
    pos = 20
    tensors = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        name = data[pos:pos + name_len].decode()
        pos += name_len
        (rank,) = struct.unpack_from("<I", data, pos)
        pos += 4
        size = 1
        for _ in range(rank):
            (dim,) = struct.unpack_from("<q", data, pos)
            pos += 8
            size *= dim
        tensors.append((name, data[pos:pos + 4 * size]))
        pos += 4 * size
    assert pos == len(data) - 4, "trailing bytes before the CRC footer"
    return tensors


class SaveModelTest(unittest.TestCase):

    def run_tool(self, *args):
        return subprocess.run([MAMDR_RUN, *BASE_ARGS, *args],
                              capture_output=True, text=True, timeout=300)

    def test_mamdr_saves_shared_parameters_and_store(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.ckpt")
            proc = self.run_tool("--framework", "MAMDR", "--save-model", path)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn(path + ".store", proc.stdout)
            model = read_checkpoint(path)
            store = dict(read_checkpoint(path + ".store"))
            shared = [store["shared/%d" % i] for i in range(len(model))]
            self.assertEqual([raw for _, raw in model], shared,
                             "model checkpoint is not theta_S")
            domains = {name.split("/")[0] for name in store
                       if name.startswith("domain")}
            self.assertGreater(len(domains), 1)
            for d in domains:
                specific = [store["%s/%d" % (d, i)] for i in range(len(model))]
                self.assertTrue(any(raw.strip(b"\0") for raw in specific),
                                d + " has all-zero specific parameters")

    def test_per_domain_copy_frameworks_are_rejected(self):
        for framework in ("Separate", "CDR-Transfer", "Alternate+Finetune"):
            with self.subTest(framework=framework):
                with tempfile.TemporaryDirectory() as tmp:
                    path = os.path.join(tmp, "m.ckpt")
                    proc = self.run_tool("--framework", framework,
                                         "--save-model", path)
                    self.assertEqual(proc.returncode, 2, proc.stdout)
                    self.assertIn("--save-model", proc.stderr)
                    self.assertNotIn("training", proc.stdout)
                    self.assertFalse(os.path.exists(path))


if __name__ == "__main__":
    MAMDR_RUN = sys.argv.pop(1)
    unittest.main()
